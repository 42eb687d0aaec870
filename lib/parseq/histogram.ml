open Rpb_pool
module Atomic_array = Rpb_prim.Atomic_array

let num_blocks pool n =
  let target = 8 * Pool.size pool in
  max 1 (min target (Rpb_prim.Util.ceil_div n 1024))

let histogram_seq ~keys ~buckets =
  let out = Array.make buckets 0 in
  Array.iter (fun k -> out.(k) <- out.(k) + 1) keys;
  out

let histogram pool ~keys ~buckets =
  let n = Array.length keys in
  let nb = num_blocks pool n in
  let bsize = Rpb_prim.Util.ceil_div n (max nb 1) in
  let counts = Array.make (nb * buckets) 0 in
  (Pool.Recorder.span pool "hist.count" @@ fun () ->
   Pool.parallel_for ~grain:1 ~start:0 ~finish:nb
     ~body:(fun b ->
       let lo = b * bsize and hi = min n ((b + 1) * bsize) in
       let base = b * buckets in
       for i = lo to hi - 1 do
         let k = Array.unsafe_get keys i in
         counts.(base + k) <- counts.(base + k) + 1
       done)
     pool);
  let out = Array.make buckets 0 in
  (Pool.Recorder.span pool "hist.merge" @@ fun () ->
   Pool.parallel_for ~start:0 ~finish:buckets
     ~body:(fun k ->
       let acc = ref 0 in
       for b = 0 to nb - 1 do
         acc := !acc + counts.((b * buckets) + k)
       done;
       out.(k) <- !acc)
     pool);
  out

let histogram_atomic pool ~keys ~buckets =
  let counts = Atomic_array.make buckets 0 in
  Pool.parallel_for ~start:0 ~finish:(Array.length keys)
    ~body:(fun i ->
      ignore
        (Atomic_array.fetch_and_add counts (Array.unsafe_get keys i) 1))
    pool;
  Atomic_array.to_array counts

let histogram_mutex ?(stripes = 64) pool ~keys ~buckets =
  let nlocks = min stripes buckets in
  (* One padded row per stripe: its lock word, then padding to a line. *)
  let row = Atomic_array.cells_per_line in
  let locks = Atomic_array.make (row * nlocks) 0 in
  let out = Array.make buckets 0 in
  Pool.parallel_for ~start:0 ~finish:(Array.length keys)
    ~body:(fun i ->
      let k = Array.unsafe_get keys i in
      let l = row * (k mod nlocks) in
      Atomic_array.lock locks l;
      out.(k) <- out.(k) + 1;
      Atomic_array.unlock locks l)
    pool;
  out

type stats = {
  mutable count : int;
  mutable total : int;
  mutable vmin : int;
  mutable vmax : int;
}

let stats_empty () = { count = 0; total = 0; vmin = max_int; vmax = min_int }

let stats_equal a b =
  a.count = b.count && a.total = b.total && a.vmin = b.vmin && a.vmax = b.vmax

let stats_add s v =
  s.count <- s.count + 1;
  s.total <- s.total + v;
  if v < s.vmin then s.vmin <- v;
  if v > s.vmax then s.vmax <- v

let stats_merge into from =
  into.count <- into.count + from.count;
  into.total <- into.total + from.total;
  if from.vmin < into.vmin then into.vmin <- from.vmin;
  if from.vmax > into.vmax then into.vmax <- from.vmax

type stats_mode = Stats_seq | Stats_mutex | Stats_private

let histogram_stats ~mode pool ~keys ~values ~buckets =
  if Array.length keys <> Array.length values then
    invalid_arg "Histogram.histogram_stats: keys/values length mismatch";
  let n = Array.length keys in
  match mode with
  | Stats_seq ->
    let out = Array.init buckets (fun _ -> stats_empty ()) in
    for i = 0 to n - 1 do
      stats_add out.(keys.(i)) values.(i)
    done;
    out
  | Stats_mutex ->
    (* One lock per bucket, beside its data as in Rust's
       [Vec<Mutex<Stats>>]: row k holds bucket k's lock word, count, total,
       min and max, padded to a line.  The multi-word accumulator cannot be
       a single atomic, so every update serializes through its bucket's
       lock; inside it the cells are plain relaxed accesses. *)
    let row = Atomic_array.cells_per_line in
    let cells =
      Atomic_array.init (row * buckets) (fun c ->
          match c mod row with 3 -> max_int | 4 -> min_int | _ -> 0)
    in
    Pool.parallel_for ~start:0 ~finish:n
      ~body:(fun i ->
        let r = row * Array.unsafe_get keys i in
        let v = Array.unsafe_get values i in
        Atomic_array.lock cells r;
        let count = Atomic_array.unsafe_get cells (r + 1)
        and total = Atomic_array.unsafe_get cells (r + 2) in
        Atomic_array.unsafe_set cells (r + 1) (count + 1);
        Atomic_array.unsafe_set cells (r + 2) (total + v);
        if v < Atomic_array.unsafe_get cells (r + 3) then
          Atomic_array.unsafe_set cells (r + 3) v;
        if v > Atomic_array.unsafe_get cells (r + 4) then
          Atomic_array.unsafe_set cells (r + 4) v;
        Atomic_array.unlock cells r)
      pool;
    Array.init buckets (fun k ->
        let r = row * k in
        {
          count = Atomic_array.get cells (r + 1);
          total = Atomic_array.get cells (r + 2);
          vmin = Atomic_array.get cells (r + 3);
          vmax = Atomic_array.get cells (r + 4);
        })
  | Stats_private ->
    let nb = num_blocks pool n in
    let bsize = Rpb_prim.Util.ceil_div n (max nb 1) in
    let partial = Array.init nb (fun _ -> Array.init buckets (fun _ -> stats_empty ())) in
    (Pool.Recorder.span pool "hist.stats_count" @@ fun () ->
     Pool.parallel_for ~grain:1 ~start:0 ~finish:nb
       ~body:(fun b ->
         let lo = b * bsize and hi = min n ((b + 1) * bsize) in
         let local = partial.(b) in
         for i = lo to hi - 1 do
           stats_add local.(Array.unsafe_get keys i) (Array.unsafe_get values i)
         done)
       pool);
    let out = Array.init buckets (fun _ -> stats_empty ()) in
    (Pool.Recorder.span pool "hist.stats_merge" @@ fun () ->
     Pool.parallel_for ~start:0 ~finish:buckets
       ~body:(fun k ->
         for b = 0 to nb - 1 do
           stats_merge out.(k) partial.(b).(k)
         done)
       pool);
    out
