let ceil_div a b =
  assert (b > 0);
  (a + b - 1) / b

let ceil_pow2 n =
  assert (n >= 1);
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let ilog2 n =
  assert (n > 0);
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let array_for_all_i p a =
  let n = Array.length a in
  let rec go i = i >= n || (p i a.(i) && go (i + 1)) in
  go 0

let is_sorted ?(cmp = compare) a =
  let n = Array.length a in
  let rec go i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && go (i + 1)) in
  n <= 1 || go 1

let is_strictly_increasing a =
  let n = Array.length a in
  let rec go i = i >= n || (a.(i - 1) < a.(i) && go (i + 1)) in
  n <= 1 || go 1

let array_sum a = Array.fold_left ( + ) 0 a
