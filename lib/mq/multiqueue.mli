(** MultiQueue relaxed concurrent priority queue (Rihani, Sanders and
    Dementiev, SPAA '15), the dynamic priority scheduler of the paper's
    Sec. 6 and of its bfs/sssp benchmarks.

    [c * p] sequential binary heaps (lanes).  Each lane has one padded
    {!Rpb_prim.Atomic_array} row: its lock word, and beside it the lane's
    cached top priority ([max_int] when empty), written only under the lock.
    {!push} try-locks a uniformly random lane, drawing another while the
    lock is held; {!pop} reads two random lanes' cached tops without locking
    and try-locks the one with the smaller top, drawing a fresh pair when
    that lock is held.  Rank guarantees are probabilistic: {!pop} may return
    an element that is not the global minimum, so clients must tolerate
    out-of-order delivery (e.g. re-relax in SSSP).  Every pushed element is
    eventually popped exactly once.

    A {!Scheduler} worker takes up to {!Scheduler.batch} tasks from the
    lane it locks, not one, so its rank relaxation grows with that batch:
    the deletion buffers of Williams, Sanders and Dementiev (ESA '21).  The
    standalone {!pop} takes one element per lock. *)

type t

val create : ?seed:int -> queues:int -> unit -> t
(** [queues] is typically [c * num_workers] with [c] in 2..4. *)

val nqueues : t -> int

val push : t -> pri:int -> int -> unit
(** Thread-safe. *)

val pop : t -> (int * int) option
(** [Some (pri, value)] with an approximately-minimal priority, or [None] if
    every lane was observed empty.  A [None] is advisory — a racing push may
    have landed after the scan; use {!Scheduler} for reliable termination. *)

val size : t -> int
(** Total elements across lanes; approximate under concurrency. *)

val is_empty : t -> bool

val stats : t -> string
(** Per-lane occupancy summary for diagnostics. *)

(** Long-running workers around a MultiQueue, with exact termination
    detection via an in-flight counter — the paper's bfs/sssp execution model
    ("long-running worker threads that pop tasks from the MQ then execute
    them (potentially pushing new tasks) until the MQ is empty"). *)
module Scheduler : sig
  type mq := t
  type sched

  val create : mq -> sched

  val batch : int
  (** The most tasks a worker takes from one lane under one lock (16).  A
      constant, not a setting. *)

  val push : sched -> pri:int -> int -> unit
  (** Seed or spawn a task.  Between runs, pushes go into the lanes.
      During a run only the handler may push, through the handle it is
      given. *)

  val run :
    ?pool:Rpb_pool.Pool.t ->
    sched -> num_workers:int -> handler:(sched -> pri:int -> int -> unit) -> unit
  (** Runs tasks until all work (including transitively pushed tasks) has
      drained.

      With [num_workers > 1] the workers are pool tasks: one worker loop per
      slot, [min num_workers (Pool.size pool)] slots, through
      [Pool.parallel_for ~grain:1].  Call it from inside [Pool.run pool] (or
      from a task of [pool]) for the slots to run in parallel; elsewhere
      they run one after another on the caller, which is still correct: a
      slot that starts after the work ran out returns at once.  Without
      [?pool] the run creates a transient pool of [num_workers], runs the
      loops inside its [Pool.run] and shuts it down.  Each worker draws its
      lanes from its own generator, takes up to {!batch} of the smallest
      tasks of the lane it locks, runs them, and buffers the tasks their
      handlers push.  After the batch it makes one update of the in-flight
      counter and moves the whole buffer into one locked lane.  The
      handler's [sched] is that worker's own handle.

      With [num_workers = 1] there is no lock or shared counter: the queued
      tasks move into one private binary heap that the caller drains in
      exact priority order, without allocating.

      Workers poll [Pool.check_cancel] once per batch (the one-worker loop
      once per {!batch} tasks), so [Pool.cancel_run] or a [?deadline] of
      the enclosing [Pool.run] stops a run already executing: it raises the
      scope's exception.

      An exception in a handler, or one the pool raises in a worker's task,
      propagates after every worker has stopped.  The rest of the failing
      worker's batch, the children it buffered and the tasks still queued
      are dropped, so the scheduler can run again. *)
end
