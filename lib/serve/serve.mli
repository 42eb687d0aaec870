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

    {2 Admission control}

    The queue is bounded: when [queued + in-flight >= max_queue] a request
    is shed immediately with {!Protocol.Overloaded} and a [retry_after_ms]
    hint derived from an EWMA of recent service times scaled by the queue
    depth.  Malformed or unresolvable requests are rejected without
    occupying a queue slot.

    With [slo] set, admission is {e budget-aware}: the SLO engine's
    current level ({!Rpb_obs.Slo.current_level}, one atomic load) tightens
    the effective cap to [max_queue / 2] on [Warn] and [max_queue / 4] on
    [Page] (never below 1) and scales the [retry_after_ms] hint by 2x/4x
    (clamped to 30 s) — the server sheds harder and pushes clients further
    out while the budget burns, and restores automatically once the
    engine's hysteresis steps the level back down.

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
    [serve.*] counters and queue/exec/total latency histograms; the
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

    {2 SLOs and the health plane}

    With [slo] set, the sampler thread also evaluates the objectives each
    interval ({!Rpb_obs.Slo.feed_snapshot} over a fresh snapshot): the
    per-objective verdicts are exported as [slo.*] gauges (level, fast and
    slow burn, budget remaining — visible to [rpb top] and the JSONL
    stream), the overall level is published to the global admission
    register, and the [verb=health] protocol request (admission-bypassing,
    like [stats]) replies with the [kind="health"] document.  The fast and
    slow burn windows come from [slo_fast_s]/[slo_slow_s], so tests and
    smoke jobs scale the 1-min/1-hour production windows down to
    seconds. *)

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
  slo : Rpb_obs.Slo.spec option;
      (** objectives evaluated on the sampler thread; [None] disables the
          SLO engine entirely (admission then never tightens) *)
  slo_fast_s : float;  (** fast burn window, seconds (default 60) *)
  slo_slow_s : float;  (** slow burn window, seconds (default 3600) *)
}

val default_config : socket_path:string -> config
(** [threads = Domain.recommended_domain_count () - 1] (min 1),
    [max_queue = 16], [drain_grace_s = 2.0], [scale_cap = 6], no preload,
    no artifact, not quiet, no metrics JSONL, [metrics_interval_s = 1.0],
    [slow_log = 8], [slow_pctl = 99.0], no SLO, 60 s / 3600 s burn
    windows. *)

type stats = {
  accepted : int;  (** requests admitted to the queue *)
  ok : int;
  shed : int;  (** replied [overloaded] *)
  stalled : int;  (** per-request deadline fired *)
  cancelled : int;  (** cancelled by disconnect (incl. unsent replies) *)
  failed : int;  (** job raised, or verification failed *)
  rejected : int;  (** malformed / unknown bench / capped *)
  shutdown_replies : int;  (** queued requests replied [shutdown] at drain *)
  disconnects : int;
      (** connections that ended with a transport error, or with requests
          still outstanding (their work was cancelled) *)
  connections : int;
  max_occupancy : int;  (** high-water mark of queued + in-flight *)
}

type t

val start : config -> (t, string) result
(** Bind and listen on [socket_path] (any stale socket file is replaced),
    create the pool, prepare the preloads, and launch the accept thread and
    the executor domain.  [Error msg] if the socket can't be bound. *)

val stop : t -> unit
(** Graceful drain as described above.  Idempotent; blocks until every
    thread and domain has been joined and the artifact (if any) written. *)

val stats : t -> stats
(** A consistent snapshot (taken under the queue lock). *)

val socket_path : t -> string
