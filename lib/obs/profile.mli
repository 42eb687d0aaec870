(** The [rpb profile] driver: run one benchmark under the scheduler flight
    recorder and reduce the event stream to a work/span report.

    The profiled run is a single timed execution (after an unrecorded
    warm-up) of the benchmark's parallel implementation inside [Pool.run],
    bracketed by {!Rpb_pool.Pool.Recorder.with_root} so top-level compute is
    charged to the root strand.  The resulting {!report} carries both the
    standard benchmark record (so [PROFILE_*.json] files parse with plain
    [Bench_json.read_doc]) and the full {!Sp_dag.t} metrics. *)

type report = {
  bench : string;
  input : string;
  size : string;  (** human-readable input description from [prepare] *)
  mode : string;
  scale : int;
  threads : int;
  seed : int;  (** recorded for provenance; suite inputs are self-seeded *)
  elapsed_ns : float;  (** wall time of the recorded run *)
  verified : bool;
  workers : Rpb_benchmarks.Bench_json.worker_stats list;
      (** [Pool.Stats] counters across the recorded run *)
  metrics : Sp_dag.t;
}

val profile :
  ?input:string ->
  ?mode:Rpb_benchmarks.Mode.t ->
  ?ring_capacity:int ->
  bench:string ->
  threads:int ->
  scale:int ->
  seed:int ->
  unit ->
  report
(** Run and analyze one benchmark configuration.  [input] defaults to the
    benchmark's first standard input, [mode] to [Unsafe] (the fastest
    parallel implementation — the one whose scaling the paper's tables
    question).
    @raise Invalid_argument on an unknown benchmark name. *)

val summary : report -> string
(** The human-readable report: work, span, parallelism, burdened
    parallelism, scheduler totals, leaf-granularity histogram, per-phase and
    per-worker tables, and the 1..P predicted-speedup curve. *)

val to_json : report -> Rpb_benchmarks.Bench_json.json
(** The [schema_version = 2] profile document: a standard [results] array
    with the run's benchmark record (so v1-style readers and
    [Bench_json.records_of_doc] still work on profile files), plus the
    ["profile"] section with the full metrics. *)

val of_json : Rpb_benchmarks.Bench_json.json -> report
(** Inverse of {!to_json} (derived outputs — the speedup curve — are
    recomputed, not parsed).  @raise Rpb_benchmarks.Bench_json.Parse_error
    on malformed documents. *)

val write_json : path:string -> report -> unit
val read_json : string -> report

val write_chrome : string -> Rpb_pool.Pool.Recorder.recording -> int
(** [write_chrome path recording] writes the recording as a Chrome
    trace-event JSON array (loadable in [chrome://tracing] or Perfetto) and
    returns the number of events written.  Every event is a complete
    (["ph":"X"]) event on [tid = w]: [Work] segments as [work], [Phase]
    events under their span name, [Idle] episodes as [idle]; the other
    recorder events are not exported.  Timestamps are mapped onto the Unix
    epoch via [Rpb_prim.Timing.epoch_of_monotonic_us]. *)
