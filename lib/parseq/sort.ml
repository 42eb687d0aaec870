open Rpb_pool

let seq_cutoff = 2048

(* ---------- merge sort ---------- *)

(* Sorts src.[lo,hi) and leaves the result in dst.[lo,hi) when [to_dst],
   otherwise in src itself.  Children sort into the opposite buffer so the
   final merge lands in the requested one. *)
let rec msort pool cmp src dst lo hi to_dst =
  if hi - lo <= seq_cutoff then begin
    let len = hi - lo in
    let tmp = Array.sub src lo len in
    Array.stable_sort cmp tmp;
    let target = if to_dst then dst else src in
    Array.blit tmp 0 target lo len
  end
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let ((), ()) =
      Pool.join pool
        (fun () -> msort pool cmp src dst lo mid (not to_dst))
        (fun () -> msort pool cmp src dst mid hi (not to_dst))
    in
    let from = if to_dst then src else dst in
    let target = if to_dst then dst else src in
    Merge.merge_into pool ~cmp from ~alo:lo ~ahi:mid from ~blo:mid ~bhi:hi
      target ~out_lo:lo
  end

let merge_sort_inplace pool ~cmp a =
  Pool.Recorder.span pool "sort.merge" @@ fun () ->
  let n = Array.length a in
  if n > 1 then begin
    let buf = Array.copy a in
    msort pool cmp a buf 0 n false
  end

let merge_sort pool ~cmp a =
  let out = Array.copy a in
  merge_sort_inplace pool ~cmp out;
  out

(* ---------- sample sort ---------- *)

(* Samples per bucket when picking pivots. *)
let oversample = 8

let sample_sort pool ~cmp a =
  Pool.Recorder.span pool "sort.sample" @@ fun () ->
  let n = Array.length a in
  if n <= seq_cutoff then begin
    let out = Array.copy a in
    Array.stable_sort cmp out;
    out
  end
  else begin
    let nbuckets =
      min 256 (max 2 (int_of_float (sqrt (float_of_int n)) / 16))
    in
    (* Deterministic sample: strided hashes of the index space. *)
    let rng = Rpb_prim.Rng.create 0x5A317E in
    let sample =
      Array.init (nbuckets * oversample) (fun _ -> a.(Rpb_prim.Rng.int rng n))
    in
    Array.stable_sort cmp sample;
    let pivots = Array.init (nbuckets - 1) (fun i -> sample.((i + 1) * oversample)) in
    (* Bucket id of each element: binary search among pivots.  Stride. *)
    let bucket_of x =
      (* first pivot > x gives the bucket *)
      let lo = ref 0 and hi = ref (Array.length pivots) in
      while !lo < !hi do
        let mid = !lo + ((!hi - !lo) / 2) in
        if cmp pivots.(mid) x < 0 then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let bids = Rpb_core.Par_array.init pool n (fun i -> bucket_of a.(i)) in
    (* Stable counting scatter by bucket id. *)
    let dest = Radix.rank_by_key pool ~keys:bids ~buckets:nbuckets in
    let out = Array.make n a.(0) in
    Pool.parallel_for ~start:0 ~finish:n
      ~body:(fun i -> Array.unsafe_set out (Array.unsafe_get dest i) (Array.unsafe_get a i))
      pool;
    (* Bucket boundaries = histogram + scan, then sort each bucket. *)
    let counts = Histogram.histogram pool ~keys:bids ~buckets:nbuckets in
    let starts, _ = Scan.exclusive_int pool counts in
    Pool.parallel_for ~grain:1 ~start:0 ~finish:nbuckets
      ~body:(fun b ->
        let lo = starts.(b) in
        let hi = if b + 1 < nbuckets then starts.(b + 1) else n in
        if hi - lo > 1 then begin
          let tmp = Array.sub out lo (hi - lo) in
          Array.stable_sort cmp tmp;
          Array.blit tmp 0 out lo (hi - lo)
        end)
      pool;
    out
  end

let is_sorted pool ~cmp a =
  let n = Array.length a in
  n <= 1
  || Pool.parallel_for_reduce ~start:1 ~finish:n
       ~body:(fun i -> cmp a.(i - 1) a.(i) <= 0)
       ~combine:( && ) ~init:true pool
