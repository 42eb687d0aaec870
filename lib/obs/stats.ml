(* Robust statistics over benchmark sample vectors.

   Benchmark timings on a shared container are heavy-tailed: a GC pause, a
   noisy neighbour or a scheduler hiccup can inflate a single repeat by an
   order of magnitude.  Means are pulled arbitrarily far by one such
   outlier; the median moves only when half the samples move, and the
   interpolated quartiles give the matching spread. *)

let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty sample set")

let mean a =
  check_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let minimum a =
  check_nonempty "Stats.minimum" a;
  Array.fold_left min a.(0) a

let maximum a =
  check_nonempty "Stats.maximum" a;
  Array.fold_left max a.(0) a

(* Median of a *sorted* array, interpolating the midpoint for even sizes. *)
let median_sorted s =
  let n = Array.length s in
  if n land 1 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let median a =
  check_nonempty "Stats.median" a;
  let s = Array.copy a in
  Array.sort compare s;
  median_sorted s

let quantile_sorted s q =
  (* Linear interpolation between closest ranks (type-7, the numpy/R
     default). *)
  let n = Array.length s in
  if n = 1 then s.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    let frac = h -. float_of_int lo in
    ((1.0 -. frac) *. s.(lo)) +. (frac *. s.(hi))
  end

(* ---------- nearest-rank percentiles ---------- *)

(* The one nearest-rank definition in the tree: Serve.Latency summaries and
   Metrics bucket percentiles both delegate their rank computation here, so
   the two ends of a snapshot round-trip can never disagree on which sample
   a percentile names. *)
let nearest_rank ~count ~pct =
  if count < 1 then invalid_arg "Stats.nearest_rank: empty sample set";
  let pct = Float.max 0. (Float.min 100. pct) in
  max 1 (min count (int_of_float (ceil (pct *. float_of_int count /. 100.))))

let percentile_sorted s pct =
  check_nonempty "Stats.percentile_sorted" s;
  s.(nearest_rank ~count:(Array.length s) ~pct - 1)
