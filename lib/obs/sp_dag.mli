(** Series-parallel DAG reconstruction and work/span analysis.

    Turns a {!Rpb_pool.Pool.Recorder.recording} — the raw flight-recorder
    event stream — back into the fork-join (series-parallel) DAG the run
    executed, and computes the Cilkview-style metrics the paper's speedup
    questions need:

    - {e work} T₁: total computation time across all strands — what one
      worker would need;
    - {e span} T∞: the longest series-dependent chain — what infinitely many
      workers would still need;
    - {e parallelism} T₁/T∞: the maximum speedup the DAG itself allows, on
      any number of workers;
    - {e burdened span / parallelism}: the same chain with each spawned
      branch charged its measured fork→exec queue delay, i.e. the
      parallelism left after real scheduling burden.  GC pressure already
      lands inside the [Work] strand segments (a collection pauses the
      mutator mid-segment), so it inflates work and span directly; the
      per-worker GC fields show how much collection fell inside each
      worker's sampling window.

    Reconstruction is tolerant of ring overflow: a construct whose [Fork]
    event was dropped is attached under the root, missing [Exec] events cost
    only their queue-delay burden, and the metrics carry the {!t.dropped}
    count so consumers can judge coverage.  Construct ids are allocated in
    fork order (parent id < child id), so the event stream always describes
    an acyclic tree. *)

type worker = {
  w : int;  (** worker index; [-1] = a strand observed off the pool *)
  work_ns : int;  (** time inside [Work] segments on this worker *)
  idle_ns : int;  (** time inside recorded sleep episodes *)
  steals : int;  (** successful steals by this worker *)
  tasks : int;  (** spawned branches this worker executed *)
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  minor_words : float;
      (** The four GC fields are {e process-wide} [Gc.quick_stat] deltas
          between this worker's first and last [Gc_sample] — the whole
          program's collections over this worker's sampling window, not
          collections this worker caused.  Windows of different workers
          overlap, so the fields must not be summed across workers. *)
}

type phase = { name : string; count : int; total_ns : int }
(** Aggregated {!Rpb_pool.Pool.Recorder.span} phases (per-phase attribution of
    the profiled run, e.g. the sort/scan/histogram spans in [lib/parseq]). *)

type t = {
  work_ns : int;
  span_ns : int;
  burdened_span_ns : int;
  parallelism : float;  (** work / span *)
  burdened_parallelism : float;  (** work / burdened span *)
  constructs : int;  (** fork-join constructs recorded (root excluded) *)
  tasks : int;  (** spawned branches that began executing *)
  steals : int;
  idle_ns : int;
  queue_delay_ns : int;
      (** total fork→exec delay of {e migrated} spawned branches — ones
          stolen to a different worker than the forking one.  Non-migrated
          branches are popped by their owner after the inline branch, so
          their gap merely replays serial order and is not burden. *)
  events : int;  (** surviving flight-recorder events *)
  dropped : int;  (** events lost to ring overflow *)
  per_worker : worker list;  (** ascending worker index *)
  phases : phase list;  (** descending total time *)
  granularity : (int * int) list;
      (** leaf-strand granularity histogram: [(k, count)] counts leaf
          branches whose local computation fell in [[2{^k}, 2{^k+1}) ns],
          ascending [k] *)
}

val analyze : Rpb_pool.Pool.Recorder.recording -> t
(** Reconstruct the DAG and compute every metric.  Total over the event
    list; an empty recording yields all-zero metrics with
    [parallelism = 1]. *)

val predicted_speedup : t -> int -> float
(** [predicted_speedup m p] is the burdened-DAG speedup estimate for [p]
    workers: [T₁ / (T₁/p + T∞ᵇ)].  It interpolates between perfect linear
    scaling (work-limited, small [p]) and the burdened parallelism ceiling
    (span-limited, large [p]). *)

val load_imbalance : t -> float
(** Max over mean of per-worker [Work] time, over the workers that recorded
    any work ([1.0] = perfectly balanced). *)
