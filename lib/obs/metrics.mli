(** Process-global live metrics registry: the in-process telemetry plane
    behind [rpb serve]'s [stats] verb, [rpb top], and
    [--metrics-interval] JSONL streams.

    Three instrument kinds, all named, all process-global:

    - {e counters} — monotone integers, striped across domains: each of the
      {!n_stripes} stripes is its own cache-line-padded slab and a writer
      picks its stripe from its domain id, so concurrent increments from
      different domains (serve's executor, connection systhreads, pool
      workers) never contend on one cache line.  Increments are plain
      (racy) stores in the {!Rpb_pool.Pool.Stats} mold: per-stripe a single
      writer domain dominates, and the aggregation in {!snapshot} tolerates
      torn interleavings because the values are monotone diagnostics.
    - {e gauges} — last-writer-wins floats, plus {e probes}: registered
      closures evaluated at snapshot time, which is how pool-level state
      (deque depths, timer-wheel occupancy) is exported without [lib/pool]
      depending on this library.  Every snapshot also carries two built-in
      GC probes, [gc.minor_collections] and [gc.minor_kwords], read from
      one [Gc.quick_stat] — process-wide totals on OCaml 5, cumulative
      (consumers take deltas).
    - {e histograms} — fixed 64-bucket log2(nanoseconds) latency
      histograms, striped like counters.  Bucket [b] holds samples in
      [\[2^b, 2^(b+1))] ns (bucket 0 also absorbs <= 1 ns); merge is
      bucketwise addition, and percentiles interpolate linearly inside the
      winning bucket.

    {2 The switch}

    The whole plane sits behind one process-global enable flag in the
    {!Rpb_pool.Pool.Recorder} idiom: while {!enabled} is false every
    instrument call costs exactly one atomic load and allocates nothing;
    while true, a counter bump is that load plus one plain array increment
    in the caller's own stripe.  The switch never touches the pool.

    {2 Snapshots}

    {!snapshot} merges every stripe into one [kind="metrics"]
    {!Rpb_benchmarks.Bench_json} document: a monotone [seq] number, wall
    and monotonic timestamps, all counters, all gauges and probes, and all
    histograms (count, sum, percentiles, non-empty buckets).  Snapshots are
    point-in-time but not atomic across instruments — counters written
    while a snapshot runs may or may not land in it, yet each counter is
    itself monotone across snapshots, which is the invariant the CI
    serve-smoke job asserts. *)

val n_stripes : int
(** Number of per-domain stripes per counter/histogram (a small power of
    two; domain ids are folded onto it). *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every registered instrument and the snapshot [seq].  For tests;
    instruments stay registered. *)

(** {1 Instruments}

    Creation is find-or-create by name under a registry lock — do it at
    startup, not on hot paths.  Names are free-form; the convention is
    [layer.metric], e.g. [serve.ok], [pool.steals_ok], [gc.major_slice_ns]. *)

type counter
type gauge
type histogram

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
(** Merged (all-stripe) value. *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

val probe : string -> (unit -> float) -> unit
(** Register (or replace) a polled gauge: the closure is evaluated at each
    {!snapshot}.  It must be cheap and must not raise — a raising probe
    reports [nan]. *)

val histogram : string -> histogram

val observe_ns : histogram -> int -> unit
val observe_ms : histogram -> float -> unit

val bucket_of_ns : int -> int
(** The log2 bucket index a sample lands in ([0..63]). *)

val bucket_bounds_ns : int -> float * float
(** [(inclusive lower, exclusive upper)] bounds of a bucket in ns. *)

val hist_count : histogram -> int
val hist_sum_ns : histogram -> int
val hist_buckets : histogram -> int array
(** Merged 64-bucket counts. *)

val percentile_ms : histogram -> float -> float
(** [percentile_ms h q] for [q] in [0..100], linearly interpolated inside
    the winning log2 bucket; [0.] on an empty histogram. *)

val percentile_of_buckets_ms : int array -> float -> float
(** Same, over an already-merged bucket array (e.g. parsed back out of a
    snapshot document by [rpb top]). *)

(** {1 Pool export} *)

val register_pool : Rpb_pool.Pool.t -> unit
(** Register probes exporting a pool's scheduler state under [pool.*]:
    worker count, cumulative tasks/steals/failed-steals/idle episodes (from
    {!Rpb_pool.Pool.Stats.capture} — consumers take deltas), instantaneous
    total and max deque depth, and timer-wheel occupancy.  Registering
    another pool replaces the probes (latest pool wins). *)

(** {1 GC pause sampling}

    Major-slice and minor pause observation via the runtime's own
    [Runtime_events] stream, self-monitored in-process: begin/end pairs of
    the minor-collection and major-slice runtime phases are folded into the
    [gc.minor_pause_ns] / [gc.major_slice_ns] histograms on each
    {!snapshot} (and on explicit {!poll_gc_events}). *)

val sample_gc_pauses : unit -> bool
(** Start runtime-events self-monitoring (idempotent).  [false] when the
    runtime refuses — callers degrade to no pause histograms. *)

val poll_gc_events : unit -> int
(** Drain pending runtime events into the pause histograms; returns the
    number of events consumed.  No-op (0) unless {!sample_gc_pauses}
    succeeded. *)

(** {1 Snapshots} *)

val snapshot : unit -> Rpb_benchmarks.Bench_json.json
(** The [kind="metrics"] document described above.  Bumps [seq]. *)

val write_snapshot_line : out_channel -> unit
(** Append [snapshot ()] as one JSON line (the [--metrics-interval] JSONL
    format) and flush. *)
