(* Two parallel arrays hold the heap; slots [0 .. n - 1] are in use.  Every
   index the sifts touch is below [n <= Array.length pris], so they read and
   write without bounds checks. *)
type t = {
  mutable pris : int array;
  mutable vals : int array;
  mutable n : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { pris = Array.make capacity 0; vals = Array.make capacity 0; n = 0 }

let size t = t.n
let is_empty t = t.n = 0

let grow t =
  let cap = Array.length t.pris in
  let pris = Array.make (2 * cap) 0 and vals = Array.make (2 * cap) 0 in
  Array.blit t.pris 0 pris 0 t.n;
  Array.blit t.vals 0 vals 0 t.n;
  t.pris <- pris;
  t.vals <- vals

(* Both sifts move a hole: each parent (or child) passed moves one slot,
   and the element being placed is written once, where the hole stops. *)
let push t ~pri v =
  if t.n = Array.length t.pris then grow t;
  let pris = t.pris and vals = t.vals in
  let i = ref t.n in
  t.n <- t.n + 1;
  while
    !i > 0
    && pri < Array.unsafe_get pris ((!i - 1) / 2)
  do
    let parent = (!i - 1) / 2 in
    Array.unsafe_set pris !i (Array.unsafe_get pris parent);
    Array.unsafe_set vals !i (Array.unsafe_get vals parent);
    i := parent
  done;
  Array.unsafe_set pris !i pri;
  Array.unsafe_set vals !i v

let empty name = invalid_arg ("Binary_heap." ^ name ^ ": empty heap")

let min_pri t = if t.n = 0 then empty "min_pri" else Array.unsafe_get t.pris 0
let min_val t = if t.n = 0 then empty "min_val" else Array.unsafe_get t.vals 0

(* The last element fills the hole left at the root, sinking below every
   child smaller than it. *)
let remove_min t =
  if t.n = 0 then empty "remove_min";
  let n = t.n - 1 in
  t.n <- n;
  let pris = t.pris and vals = t.vals in
  let pri = Array.unsafe_get pris n and v = Array.unsafe_get vals n in
  let i = ref 0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= n then sinking := false
    else begin
      let c =
        if l + 1 < n && Array.unsafe_get pris (l + 1) < Array.unsafe_get pris l
        then l + 1
        else l
      in
      if Array.unsafe_get pris c < pri then begin
        Array.unsafe_set pris !i (Array.unsafe_get pris c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else sinking := false
    end
  done;
  Array.unsafe_set pris !i pri;
  Array.unsafe_set vals !i v

let peek_min t = if t.n = 0 then None else Some (min_pri t, min_val t)

let pop_min t =
  if t.n = 0 then None
  else begin
    let top = (min_pri t, min_val t) in
    remove_min t;
    Some top
  end

let to_sorted_list t =
  let rec go acc =
    match pop_min t with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []
