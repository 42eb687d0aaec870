open Rpb_pool

let iteri pool f a =
  Pool.parallel_for ~start:0 ~finish:(Array.length a)
    ~body:(fun i -> f i (Array.unsafe_get a i))
    pool

let iter pool f a = iteri pool (fun _ x -> f x) a

let mapi pool f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0 a.(0)) in
    Pool.parallel_for ~start:1 ~finish:n
      ~body:(fun i -> Array.unsafe_set out i (f i (Array.unsafe_get a i)))
      pool;
    out
  end

let map pool f a = mapi pool (fun _ x -> f x) a

let mapi_inplace pool f a =
  Pool.Recorder.span pool "par_array.map_inplace" @@ fun () ->
  Pool.parallel_for ~start:0 ~finish:(Array.length a)
    ~body:(fun i -> Array.unsafe_set a i (f i (Array.unsafe_get a i)))
    pool

let map_inplace pool f a = mapi_inplace pool (fun _ x -> f x) a

let init pool n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    Pool.parallel_for ~start:1 ~finish:n
      ~body:(fun i -> Array.unsafe_set out i (f i))
      pool;
    out
  end

let fill_stride pool a f =
  Pool.parallel_for ~start:0 ~finish:(Array.length a)
    ~body:(fun i -> Array.unsafe_set a i (f i))
    pool

let reduce pool f id a =
  Pool.Recorder.span pool "par_array.reduce" @@ fun () ->
  Pool.parallel_for_reduce ~start:0 ~finish:(Array.length a)
    ~body:(fun i -> Array.unsafe_get a i)
    ~combine:f ~init:id pool

let sum pool a = reduce pool ( + ) 0 a
let sum_float pool a = reduce pool ( +. ) 0.0 a

let min_elt pool ~cmp a =
  if Array.length a = 0 then None
  else
    Some
      (Pool.parallel_for_reduce ~start:1 ~finish:(Array.length a)
         ~body:(fun i -> Array.unsafe_get a i)
         ~combine:(fun x y -> if cmp x y <= 0 then x else y)
         ~init:a.(0) pool)

let max_elt pool ~cmp a = min_elt pool ~cmp:(fun x y -> cmp y x) a

let count pool p a =
  Pool.parallel_for_reduce ~start:0 ~finish:(Array.length a)
    ~body:(fun i -> if p (Array.unsafe_get a i) then 1 else 0)
    ~combine:( + ) ~init:0 pool

let for_all pool p a = count pool (fun x -> not (p x)) a = 0
let exists pool p a = count pool p a > 0

let chunks pool ~chunk a body =
  assert (chunk > 0);
  Pool.parallel_chunks ~grain:chunk ~start:0 ~finish:(Array.length a)
    ~body pool

let copy pool a = mapi pool (fun _ x -> x) a

let blit pool ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Par_array.blit: length mismatch";
  Pool.parallel_for ~start:0 ~finish:(Array.length src)
    ~body:(fun i -> Array.unsafe_set dst i (Array.unsafe_get src i))
    pool

let reverse_inplace pool a =
  let n = Array.length a in
  Pool.parallel_for ~start:0 ~finish:(n / 2)
    ~body:(fun i ->
      let j = n - 1 - i in
      let t = Array.unsafe_get a i in
      Array.unsafe_set a i (Array.unsafe_get a j);
      Array.unsafe_set a j t)
    pool
