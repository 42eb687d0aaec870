open Rpb_pool

(* Up to 8 blocks per worker, each of at least 1024 keys.  A block owns a
   row of [buckets] counters, so the block count is also capped at
   [n / buckets] (nb * buckets <= n where possible), though never below one
   block per worker. *)
let num_blocks pool n ~buckets =
  let p = Pool.size pool in
  let nb = min (8 * p) (Rpb_prim.Util.ceil_div n 1024) in
  max 1 (min nb (max p (n / buckets)))

let rank_by_key pool ~keys ~buckets =
  assert (buckets > 0);
  let n = Array.length keys in
  let dest = Array.make n 0 in
  if n > 0 then begin
    let nb = num_blocks pool n ~buckets in
    let bsize = Rpb_prim.Util.ceil_div n nb in
    (* counts.(b * buckets + k): occurrences of key k in block b, then the
       next rank block b writes for key k. *)
    let counts = Array.make (nb * buckets) 0 in
    Pool.parallel_for ~grain:1 ~start:0 ~finish:nb
      ~body:(fun b ->
        let lo = b * bsize and hi = min n ((b + 1) * bsize) in
        let base = b * buckets in
        for i = lo to hi - 1 do
          let k = Array.unsafe_get keys i in
          if k < 0 || k >= buckets then invalid_arg "Radix.rank_by_key: key out of range";
          counts.(base + k) <- counts.(base + k) + 1
        done)
      pool;
    (* Global stable order: key-major, then block-major.  An exclusive
       prefix in that order turns each count into its (block, key) pair's
       first rank. *)
    let acc = ref 0 in
    for k = 0 to buckets - 1 do
      for b = 0 to nb - 1 do
        let j = (b * buckets) + k in
        let c = Array.unsafe_get counts j in
        Array.unsafe_set counts j !acc;
        acc := !acc + c
      done
    done;
    (* Each block advances its own row; the keys were range-checked above. *)
    Pool.parallel_for ~grain:1 ~start:0 ~finish:nb
      ~body:(fun b ->
        let lo = b * bsize and hi = min n ((b + 1) * bsize) in
        let base = b * buckets in
        for i = lo to hi - 1 do
          let j = base + Array.unsafe_get keys i in
          let r = counts.(j) in
          Array.unsafe_set dest i r;
          counts.(j) <- r + 1
        done)
      pool
  end;
  dest

let counting_sort_by pool ~key ~buckets a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let keys = Rpb_core.Par_array.init pool n (fun i -> key a.(i)) in
    let dest = rank_by_key pool ~keys ~buckets in
    let out = Array.make n a.(0) in
    Pool.parallel_for ~start:0 ~finish:n
      ~body:(fun i ->
        Array.unsafe_set out (Array.unsafe_get dest i) (Array.unsafe_get a i))
      pool;
    out
  end

let counting_sort pool ~buckets a = counting_sort_by pool ~key:Fun.id ~buckets a

let radix_bits = 8
let radix_buckets = 1 lsl radix_bits

let radix_sort_by pool ~key a =
  let n = Array.length a in
  if n <= 1 then Array.copy a
  else begin
    let max_key =
      Pool.parallel_for_reduce ~start:0 ~finish:n
        ~body:(fun i ->
          let k = key a.(i) in
          if k < 0 then invalid_arg "Radix.radix_sort_by: negative key";
          k)
        ~combine:max ~init:0 pool
    in
    let passes =
      let rec go bits acc = if max_key lsr bits = 0 then max acc 1 else go (bits + radix_bits) (acc + 1) in
      go radix_bits 1
    in
    let cur = ref (Array.copy a) in
    for p = 0 to passes - 1 do
      let shift = p * radix_bits in
      cur :=
        counting_sort_by pool
          ~key:(fun x -> (key x lsr shift) land (radix_buckets - 1))
          ~buckets:radix_buckets !cur
    done;
    !cur
  end

let radix_sort pool a = radix_sort_by pool ~key:Fun.id a
