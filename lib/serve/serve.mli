(** The [rpb serve] request server: one process owning a shared work-stealing
    pool, serving {!Protocol} jobs over a Unix-domain socket.

    {2 Architecture}

    One {e accept} systhread plus one systhread per connection parse frames
    and run admission control; a single {e executor} domain owns all
    [Pool.run] calls (a pool must not be entered from two threads at once,
    and systhreads of one domain share the pool's DLS slot).  Each request
    executes inside its own cancellation scope with its own optional
    deadline — a stalled or cancelled request replies with a structured
    error and leaves the pool reusable.

    {2 Checking}

    Preparing an instance (on first request or preload) also runs its
    sequential baseline once, requires [verify] on that output, and caches
    the output's snapshot and digest beside the instance.  A request then
    runs [run_par] (the only phase timed as [exec_ms]), takes the snapshot,
    and compares it element by element with the cached one.  A mismatch
    replies [failed] and evicts the instance; a match replies [ok] with the
    cached digest.  By the {!Rpb_benchmarks.Common.prepared} snapshot
    contract, every [ok] reply is for an output that passes [verify], and
    its digest is that of a verified sequential output.  [verify] itself is
    never called per request.

    {2 Admission control}

    The queue is bounded: when [queued + in-flight >= max_queue] a request
    is shed immediately with {!Protocol.Overloaded} and a [retry_after_ms]
    hint derived from an EWMA of recent service times scaled by the queue
    depth.  Malformed or unresolvable requests are rejected without
    occupying a queue slot.

    {2 Cancellation and drain}

    A client disconnecting cancels its queued jobs and cooperatively
    cancels its in-flight run ({!Rpb_pool.Pool.cancel_run}).  {!stop}
    drains gracefully: stop accepting, reply [shutdown] to queued
    requests, let the in-flight request finish within [drain_grace_s]
    (cancelling it when the grace timer — on the shared
    {!Rpb_pool.Pool.Timer} wheel — fires first), then join every thread,
    write the [kind="serve"] artifact, and shut the pool down (including
    the shared timer wheel, via {!Rpb_pool.Pool.Timer.shutdown}).  No
    failure mode (faults, stalls, disconnects, floods of garbage bytes)
    may kill the process or poison a pool.

    {2 Live metrics}

    {!start} enables the process-global {!Rpb_obs.Metrics} plane and
    registers the pool's scheduler gauges.  Request handling feeds
    [serve.*] counters and queue/exec/check/total latency histograms
    ([serve.check_ms] times the snapshot comparison of every request that
    reaches it, ok or mismatched); the
    [verb=stats] protocol request replies with a point-in-time
    [kind="metrics"] snapshot (served even while draining), which is what
    [rpb top] renders.  With [metrics_path] set, a sampler thread appends
    one snapshot per [metrics_interval_s] to a JSONL file — the
    [kind="metrics"] lines feed the report dashboard's time-series
    section.  With [slow_log > 0], every request runs under a private
    flight-recorder session and requests whose exec time clears the
    [slow_pctl] percentile of the exec histogram (threshold frozen before
    the run; never before 32 samples) are reduced by
    {!Rpb_obs.Sp_dag.analyze} to PROFILE-compatible documents, kept in the
    artifact's [slow_requests] and streamed into the JSONL.

    {2 Health}

    The [verb=health] protocol request bypasses admission like [stats],
    so it answers even while the queue is at its cap or draining.  Its
    payload is a small [kind="health"] document: [status = "ok"] and the
    configured [max_queue].  A reply shows that the server is live. *)

type config = {
  socket_path : string;
  threads : int;  (** workers in the server's pool *)
  max_queue : int;  (** admission bound on queued + in-flight requests *)
  drain_grace_s : float;  (** how long {!stop} lets the in-flight run finish *)
  scale_cap : int;  (** requests with a larger [scale] are rejected *)
  preload : (string * string option * int) list;
      (** [(bench, input, scale)] instances prepared at startup so first
          requests don't pay input generation *)
  json_path : string option;  (** where {!stop} writes the serve artifact *)
  quiet : bool;
  metrics_path : string option;
      (** append one [kind="metrics"] snapshot per interval as JSONL *)
  metrics_interval_s : float;  (** sampler period (default 1.0) *)
  slow_log : int;
      (** keep at most this many slow-request profiles (0 disables) *)
  slow_pctl : float;
      (** exec-time percentile a request must clear to be logged as slow *)
}

val default_config : socket_path:string -> config
(** [threads = Domain.recommended_domain_count () - 1] (min 1),
    [max_queue = 16], [drain_grace_s = 2.0], [scale_cap = 6], no preload,
    no artifact, not quiet, no metrics JSONL, [metrics_interval_s = 1.0],
    [slow_log = 8], [slow_pctl = 99.0]. *)

type stats = {
  accepted : int;  (** requests admitted to the queue *)
  ok : int;
  shed : int;  (** replied [overloaded] *)
  stalled : int;  (** per-request deadline fired *)
  cancelled : int;  (** cancelled by disconnect (incl. unsent replies) *)
  failed : int;
      (** job raised, or its output's snapshot differed from the verified
          sequential snapshot *)
  rejected : int;  (** malformed / unknown bench / capped *)
  shutdown_replies : int;  (** queued requests replied [shutdown] at drain *)
  disconnects : int;
      (** connections that ended with a transport error, or with requests
          still outstanding (their work was cancelled) *)
  connections : int;
  max_occupancy : int;  (** high-water mark of queued + in-flight *)
}

type t

val start :
  ?instances:((string * string * int) * Rpb_benchmarks.Common.prepared) list ->
  config ->
  (t, string) result
(** Bind and listen on [socket_path] (any stale socket file is replaced),
    create the pool, prepare the preloads, and launch the accept thread and
    the executor domain.  [Error msg] if the socket can't be bound or a
    preload fails.

    [instances] (default none) puts hand-built instances in the
    prepared-instance cache under [(bench, input, scale)] keys, checked
    exactly like a preload.  A request for such a key is served from that
    instance until a run of it fails; tests use this to drive the
    snapshot-mismatch path. *)

val stop : t -> unit
(** Graceful drain as described above.  Idempotent; blocks until every
    thread and domain has been joined and the artifact (if any) written. *)

val stats : t -> stats
(** A consistent snapshot (taken under the queue lock). *)

val socket_path : t -> string
