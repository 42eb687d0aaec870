(** Work-stealing fork-join pool over OCaml domains.

    This is the reproduction's stand-in for Rayon (and for the OpenCilk
    runtime used by the paper's C++ baselines): a fixed set of worker domains,
    one Chase–Lev deque per worker, random-victim stealing, and blocking
    idle-wait so that an oversubscribed machine is not burned by spinning.

    The usage discipline mirrors Rayon's implicit global pool made explicit:

    {[
      let pool = Pool.create ~num_workers:4 () in
      Pool.run pool (fun () ->
        Pool.parallel_for ~start:0 ~finish:n ~body:(fun i -> ...) pool);
      Pool.shutdown pool
    ]}

    All parallel operations ({!join}, {!parallel_for}, ...) run in parallel
    only when called from inside {!run} (the calling domain becomes worker 0)
    or from a task already executing on the pool; outside, they run
    sequentially on the caller.  A [join] waiting for its stolen branch
    never blocks the worker: it helps by popping and stealing pending tasks,
    the standard fork-join "help-first" policy that makes nested parallelism
    deadlock-free.

    The scheduler is instrumented: every worker keeps private, cache-line
    padded counters (see {!Stats}) and every hot path carries an optional
    flight-recorder hook (see {!Recorder}) that costs one atomic load when
    disabled.

    {2 Failure semantics}

    Every {!run} owns a {e cancellation scope}.  The first exception raised
    by a task (a {!join} branch, and through [join] every
    {!parallel_for} / {!parallel_for_reduce} / {!parallel_chunks} subtree)
    is recorded in the scope and flips its cancel flag; after that, splitters
    and [join] stop descending and fresh tasks of the scope resolve as
    {!Cancelled} without running user code, so sibling work is abandoned
    early rather than run to completion.  Before {!run} returns or re-raises
    it {e drains} the scope — waits for every outstanding task to
    resolve — so no pool task can still reference the caller's stack or
    buffers after [run] exits.  The exception that surfaces from [run] is the
    {e first} recorded failure, with its original backtrace.

    {!shutdown} fails every still-queued task with {!Shutdown} instead of
    stranding a concurrent [join] forever.  All checks on the scheduling
    hot paths cost one plain/atomic load while the run is healthy. *)

type t

exception Shutdown
(** Raised by operations on a pool after {!shutdown}, and by a [join]
    whose branch was still queued when {!shutdown} ran. *)

exception Cancelled
(** Resolution of a task that was abandoned because its scope had already
    failed when the task was about to start (or when a splitter observed the
    failed scope).  User code normally never sees it: {!run} unwraps it to
    the scope's first recorded exception. *)

exception Stalled of string
(** Raised out of {!run} when the [?deadline] watchdog fired.  The payload
    carries the deadline and a per-worker counter dump ({!Stats.to_string})
    taken at expiry, for post-mortem. *)

(** {1 Shared timer wheel}

    One process-wide timer domain services every scheduled callback — in
    particular every [run ?deadline] watchdog — instead of each deadline
    spawning a [Domain] of its own, so a server multiplexing thousands of
    per-request deadlines costs one extra domain total.  The domain is
    spawned lazily on the first {!Timer.schedule}, parks while no timer is
    pending, polls at ≤5 ms granularity while one is, and is joined
    automatically at process exit. *)

module Timer : sig
  type handle

  val schedule : delay_s:float -> (unit -> unit) -> handle
  (** Run the callback on the shared timer domain [delay_s] seconds from
      now (±5 ms).  The callback must be small and must not raise — an
      escaping exception is swallowed.  @raise Invalid_argument on a
      negative delay. *)

  val cancel : handle -> unit
  (** Prevent the callback from firing.  Synchronous: if the callback is
      executing right now, [cancel] blocks until it completes, so after
      [cancel] returns the callback either ran entirely or never will.
      Idempotent; harmless after the callback has fired. *)

  val domains_spawned : unit -> int
  (** How many timer domains this process has ever spawned — at most one
      unless {!shutdown} was called in between.  The regression probe that
      keeps deadline-bearing runs from costing a domain apiece. *)

  val shutdown : unit -> unit
  (** Stop and join the timer domain (pending timers are abandoned).  The
      next {!schedule} spawns a fresh one.  Called automatically at
      process exit. *)

  val pending_count : unit -> int
  (** Number of timers currently armed (scheduled and neither fired nor
      cancelled) — the timer-wheel occupancy gauge of the live metrics
      plane. *)
end

val cancel_run : t -> exn -> unit
(** [cancel_run pool exn] cancels the pool's {e current} run cooperatively,
    exactly as the [?deadline] watchdog does: the active scope records
    [exn], splitters and not-yet-started tasks observe the flag at their
    next check, and {!run} re-raises [exn] after draining.  Best-effort by
    design: callable from any domain or thread, a no-op when no run is
    active (the idle scope is discarded at the next {!run} entry), and
    tasks already executing are not interrupted.  This is the primitive a
    serving layer uses when a client disconnects mid-request. *)

(** {1 Scheduling}

    The scheduler has no policy knobs.  Every steal takes one task from a
    victim sweep that starts at a uniform-random worker; {!join} is
    help-first (the second branch is pushed, the first runs inline);
    {!parallel_for} / {!parallel_for_reduce} split eagerly down to
    [grain]-sized leaves, with a default grain of
    [max 1 (n / (8 * workers))].  Idle workers spin 64 times before
    sleeping, a [join] waiting for its stolen branch that finds no work
    sleeps 50 µs, and a run draining a failed scope backs off from 1 µs
    doubling to 1 ms. *)

val create : num_workers:int -> unit -> t
(** [create ~num_workers ()] spawns [num_workers - 1] worker domains; the
    domain that later calls {!run} acts as the remaining worker.
    [num_workers] must be at least 1.  With [num_workers = 1] every operation
    degrades to sequential execution on the caller.

    Graceful degradation: if [Domain.spawn] fails (resource exhaustion), the
    attempt is retried with capped backoff and, if it keeps failing, the pool
    is created with however many workers did spawn instead of crashing.  The
    shortfall is visible as {!Stats.requested_workers} vs
    {!Stats.num_workers}. *)

val create_deterministic : ?seed:int -> ?shuffle:bool -> unit -> t
(** A drop-in deterministic sequential executor: a pool of one worker (no
    domains are spawned) whose parallel operations run entirely on the
    calling domain in a reproducible order.  With [shuffle] (the default),
    {!parallel_for} / {!parallel_for_reduce} / {!parallel_chunks} visit their
    leaves in a seeded random permutation (ascending within each leaf) and
    {!join} flips branch order by a seeded coin — all schedules a real
    work-stealing run could produce, so any result difference against the
    default in-order run exposes an order-sensitive (racy) computation.
    Equal seeds give equal schedules.  This is the reference executor behind
    the differential oracle in [lib/check]. *)

val deterministic : t -> bool
(** Whether the pool was built by {!create_deterministic}. *)

val size : t -> int
(** Number of workers (including the caller-during-[run]). *)

val run : ?deadline:float -> t -> (unit -> 'a) -> 'a
(** [run pool f] executes [f] with the calling domain installed as worker 0.
    Nested [run] on the same pool from inside a task is not allowed.

    On failure the scope is cancelled, outstanding tasks are drained (see
    {e Failure semantics} above), and the first recorded exception re-raises
    with its original backtrace — [run] never returns or raises while a task
    of this run is still executing.  After an exceptional [run] the pool is
    healthy and reusable; the next [run] gets a fresh scope.

    [?deadline] (seconds, must be positive) starts a watchdog domain: if the
    run is still going when it expires, the scope is cancelled with
    {!Stalled} carrying a per-worker counter dump.  Tasks already running are
    not interrupted — the deadline bounds runs whose remaining work consists
    of cancellable splitters and queued tasks, which is what turns a CI hang
    into a structured failure. *)

val shutdown : t -> unit
(** Terminates the worker domains and joins them, then fails every task
    still queued with {!Shutdown} so a concurrent [join] raises instead of
    polling forever.  Idempotent. *)

val join : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [join pool f g] runs [f] and [g] potentially in parallel and returns both
    results — the Rayon [join] of the paper's Listing 9.

    If either branch raises, the run's scope is cancelled and the exception
    propagates — but only after the sibling branch has resolved
    (it is skipped if it had not started), so the unwind never races a
    branch still executing against the caller's frames.  If the scope was
    already cancelled when [join] is entered, it re-raises the first
    recorded exception instead of forking. *)

val parallel_for : ?grain:int -> start:int -> finish:int -> body:(int -> unit) -> t -> unit
(** [parallel_for ~start ~finish ~body pool] applies [body] to every index in
    the half-open range [\[start, finish)], splitting it recursively in halves
    down to [grain]-sized leaves.  When [?grain] is omitted it is
    [max 1 (n / (8 * workers))], ~8 leaves per worker.  The pool comes last
    (domainslib convention) so that the optional [?grain] can be erased. *)

val parallel_for_reduce :
  ?grain:int -> start:int -> finish:int ->
  body:(int -> 'a) -> combine:('a -> 'a -> 'a) -> init:'a -> t -> 'a
(** Tree-shaped map-reduce over an index range, split exactly as in
    {!parallel_for}.  [combine] must be associative (the tree's shape moves
    with [grain]); [init] must be its identity on the left of any leaf
    result. *)

val parallel_chunks :
  ?grain:int -> start:int -> finish:int -> body:(int -> int -> unit) -> t -> unit
(** [parallel_chunks ~start ~finish ~body pool] partitions the range into
    contiguous chunks and calls [body lo hi] once per chunk ([hi] exclusive).
    Used to express Block-style operators where the per-chunk loop matters. *)

val current_worker : t -> int option
(** The calling domain's worker index, if it is executing on this pool.
    Useful for per-worker scratch state. *)

val deque_depths : t -> int array
(** Instantaneous per-worker deque depths — racy point-in-time reads, a
    live-load sketch for the metrics plane, not a synchronized snapshot. *)

(** {1 Scheduler telemetry}

    Every worker maintains private counters in its own cache line — the
    increments on the scheduling hot paths are plain stores with no
    cross-worker contention, so the instrumentation does not perturb the
    1-vs-P-thread comparisons the paper's evaluation rests on.  Aggregation
    happens only when a snapshot is {!Stats.capture}d. *)

module Stats : sig
  type pool := t

  type worker = {
    worker_id : int;
    tasks_executed : int;  (** tasks this worker ran (own, stolen, injected) *)
    steals_ok : int;  (** successful steals by this worker *)
    steals_failed : int;  (** victim sweeps that found an empty/contended deque *)
    idle_episodes : int;  (** times the worker gave up spinning and slept *)
    max_deque_depth : int;  (** high-water mark of this worker's own deque *)
  }

  type t = {
    num_workers : int;  (** workers actually running *)
    requested_workers : int;
        (** workers asked for at {!create}; [> num_workers] iff the pool
            degraded because [Domain.spawn] kept failing *)
    per_worker : worker array;
  }

  val capture : pool -> t
  (** Snapshot the live counters.  Cheap (one racy read per counter); safe to
      call at any time, including while the pool is running. *)

  val reset : pool -> unit
  (** Zero all counters.  Only meaningful while the pool is quiescent. *)

  val diff : before:t -> after:t -> t
  (** Per-worker activity between two snapshots.  Monotonic counters are
      subtracted; [max_deque_depth] (a high-water mark) keeps the [after]
      value. *)

  val tasks_executed : t -> int
  val steals_ok : t -> int
  val steals_failed : t -> int
  val idle_episodes : t -> int

  val max_deque_depth : t -> int
  (** Maximum of the per-worker high-water marks. *)

  val summary : t -> string
  (** One-line totals. *)

  val to_string : t -> string
  (** Multi-line form: totals plus one line per worker. *)
end

(** {1 Scheduler flight recorder}

    The one instrumentation event stream: the raw-event layer behind the
    work/span profiler and the Chrome-trace exporter in [lib/obs] ([rpb
    profile], [rpb stats --trace]).  Off by default behind one
    process-global switch, so every instrumented scheduler site — including
    {!Recorder.span} — costs a single atomic load while it is off.

    When armed ({!Recorder.start}), each domain appends task-lifecycle events
    into its own lock-free ring buffer: single writer, drop-oldest on
    overflow, with the number of dropped events reported by
    {!Recorder.stop}.  The events carry series-parallel provenance — every
    {!join} (and through it every [parallel_for] split) allocates a fresh
    construct id and records which (construct, branch) strand forked it —
    plus [Work] strand segments, steal and idle episodes, {!Recorder.span}
    phases, and periodic per-domain [Gc.quick_stat] samples.  That is enough
    to reconstruct the fork-join DAG offline and compute work, span, and
    burdened parallelism; see [Rpb_obs.Sp_dag]. *)

module Recorder : sig
  type event =
    | Fork of {
        id : int;  (** fresh construct id of this [join] *)
        parent : int;  (** construct id of the forking strand *)
        parent_branch : int;  (** branch of [parent] the forking strand is on *)
        w : int;
        ts_ns : int;
      }
    | Join of { id : int; w : int; ts_ns : int }
    | Work of {
        construct : int;
        branch : int;  (** 0 = inline branch, 1 = spawned branch *)
        w : int;
        begin_ns : int;
        end_ns : int;
      }  (** A strand segment: [w] computed for [construct]/[branch] over
            [\[begin_ns, end_ns)].  A [join] waiting or helping for its
            stolen branch is never covered by a [Work] segment. *)
    | Exec of { construct : int; w : int; begin_ns : int }
        (** The spawned branch of [construct] began executing; paired with
            the matching [Fork] it measures the fork→exec queue delay that
            burdens the span. *)
    | Steal of { thief : int; victim : int; ts_ns : int }
    | Idle of { w : int; begin_ns : int; end_ns : int }
    | Phase of { name : string; w : int; begin_ns : int; end_ns : int }
        (** A {!Recorder.span} observed while recording. *)
    | Gc_sample of {
        w : int;
        ts_ns : int;
        minor_collections : int;
        major_collections : int;
        promoted_words : float;
        minor_words : float;
      }  (** Periodic per-domain [Gc.quick_stat] snapshot (cumulative values;
            consumers take deltas). *)

  val ts_of : event -> int
  (** The event's (begin) timestamp, for sorting. *)

  type recording = { events : event list; dropped : int }
  (** All surviving events, sorted by timestamp, plus how many were lost to
      ring overflow ([dropped = 0] means the rings were large enough). *)

  val enabled : unit -> bool

  val span : t -> string -> (unit -> 'a) -> 'a
  (** [span pool name f] runs [f] and, while recording, emits a [Phase]
      event named [name] attributed to the calling worker (worker id [-1]
      outside the pool).  While the recorder is off the cost is a single
      atomic load and no allocation. *)

  val start : ?ring_capacity:int -> unit -> unit
  (** Arm the recorder with fresh per-domain rings of [ring_capacity] events
      each (rounded up to a power of two; default 32Ki).  Any events from a
      previous session are discarded. *)

  val stop : unit -> recording
  (** Disarm and collect every domain's ring into one sorted event list. *)

  val with_root : (unit -> 'a) -> 'a
  (** [with_root f] brackets [f] as the root strand (construct 0, branch 0)
      of the recorded DAG, with GC samples at both ends, so top-level compute
      between forks is charged as work.  No-op when disabled.  Call it on the
      domain that calls {!run}, around the workload being profiled. *)
end

(** {1 Scheduler fault injection}

    A process-global switch in the {!Recorder} mold: while disabled (the
    default) every injection site costs one atomic load.  When enabled, each
    domain derives a private RNG stream from the configured seed and flips a
    coin at every scheduler decision point — task start (inject an
    exception), successful steal (inject a delay), task execution (stall the
    worker), [Domain.spawn] (fail the spawn).  Equal seeds give equal
    per-domain streams, so a failing schedule is replayable.

    This is the probe behind [Oracle.fault_sweep] ([rpb faults]): under
    injected faults every benchmark must either produce its canonical digest
    or raise a clean structured error within a deadline — never hang, never
    return a torn result. *)

module Fault : sig
  type config = {
    seed : int;  (** derives every per-domain injection stream *)
    task_exn : float;  (** P(raise {!Injected} instead of starting a task) *)
    steal_delay : float;  (** P(sleep [delay_us] after a successful steal) *)
    worker_stall : float;  (** P(sleep [delay_us] before executing a task) *)
    spawn_fail : float;  (** P(a [Domain.spawn] attempt fails) *)
    delay_us : int;  (** magnitude of injected delays and stalls *)
  }

  val off : config
  (** All probabilities zero; [delay_us = 50]. *)

  exception Injected of string
  (** The exception thrown at armed task/spawn sites.  Code under test must
      treat it like any other task failure. *)

  type counts = {
    task_exns : int;
    steal_delays : int;
    worker_stalls : int;
    spawn_fails : int;
  }

  val armed : unit -> bool
  val enable : config -> unit
  (** Zeroes the counters, re-seeds every domain's stream, arms the sites. *)

  val disable : unit -> unit

  val counts : unit -> counts
  (** Injections fired since the last {!enable}. *)

  val total : counts -> int
end
