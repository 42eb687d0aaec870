(** Robust statistics over benchmark sample vectors.

    The point estimators the benchmark harness ([bench/perf], whose
    [agree] command compares medians within quartile spreads) and the
    serve latency summaries are built on.

    Every function raises [Invalid_argument] on an empty sample set. *)

val mean : float array -> float
val minimum : float array -> float
val maximum : float array -> float

val median : float array -> float
(** Midpoint-interpolated for even sizes.  Does not mutate its argument. *)

val quantile_sorted : float array -> float -> float
(** [quantile_sorted s q] for sorted [s] and [q ∈ [0,1]], with linear
    interpolation between closest ranks (numpy/R type-7). *)

val nearest_rank : count:int -> pct:float -> int
(** The 1-based nearest rank [max 1 (ceil (pct/100 * count))], clamped to
    [\[1, count\]], for [pct ∈ [0,100]] — the single rank definition
    {!Rpb_serve}'s latency summaries and {!Metrics} bucket percentiles
    both delegate to.  Distinct from {!quantile_sorted}'s interpolating
    type-7 estimator. *)

val percentile_sorted : float array -> float -> float
(** [percentile_sorted s pct] — the nearest-rank sample of sorted [s]. *)
