(** The [rpb top] client: a refreshing terminal view over a live server's
    metrics plane.

    Each refresh opens (or reuses) a connection to the server's socket,
    sends a [verb=stats] request ({!Protocol.stats_request}), and parses
    the [kind="metrics"] snapshot reply into {!snap}.  Rates (throughput,
    steal rate, GC churn) come from deltas between consecutive snapshots;
    percentiles are recomputed client-side from the histogram buckets with
    {!Rpb_obs.Metrics.percentile_of_buckets_ms} — the snapshot's own
    [p50_ms]/[p95_ms]/[p99_ms] fields are server-side conveniences, and
    recomputing exercises the same bucket math both ends.

    A server restart mid-watch resets the metrics plane ([uptime_s] and
    [seq] start over, counters drop).  Delta-based consumers detect the
    reset and {e re-baseline}: rates render as "-" for one refresh instead
    of going negative, and [--check]'s cross-snapshot assertions restart
    from the fresh incarnation.

    [--check] mode replaces the display with snapshot-invariant assertions
    (the CI serve-smoke contract): every counter is monotone across
    consecutive snapshots, [serve.exec_ms].count reconciles with the
    [serve.ok] counter, [serve.check_ms].count lies between [serve.ok] and
    [serve.ok + serve.failed] (a failed request may have failed the check
    or never reached it), and [serve.queue_ms].count with the sum of
    executor-terminal counters.  Reconciliation allows a histogram total
    to lead its counters by at most the one in-flight request (the
    executor observes the histogram, then bumps the counter; a snapshot
    may land between), and never to trail them. *)

type hist = {
  count : int;
  sum_ns : int;
  max_ms : float;
  buckets : int array;  (** 64 merged log2 buckets *)
}

type snap = {
  seq : int;
  ts_s : float;
  uptime_s : float;
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted; probes included *)
  hists : (string * hist) list;  (** sorted *)
}

val parse_snapshot : Rpb_benchmarks.Bench_json.json -> (snap, string) result

val fetch : ?retries:int -> socket_path:string -> unit -> (snap, string) result
(** One round-trip: connect, [stats], parse.  [retries] (default 0)
    re-attempts the connect at 200 ms intervals, for racing a server that
    is still binding its socket. *)

val render : ?prev:snap -> snap -> string
(** The full-screen view (ANSI clear + cursor home prefix). *)

val check_invariants : prev:snap option -> snap -> (unit, string) result
(** The --check assertions for one snapshot (monotonicity needs [prev]). *)

val run :
  socket_path:string ->
  interval_s:float ->
  iterations:int ->
  check:bool ->
  int
(** The [rpb top] entry point; returns the process exit code (0 ok, 2 when
    the server can't be reached or replies garbage, 4 when [check] finds a
    violated invariant).  [iterations <= 0] refreshes until the server
    goes away. *)
