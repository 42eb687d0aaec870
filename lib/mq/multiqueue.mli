(** MultiQueue relaxed concurrent priority queue (Rihani, Sanders and
    Dementiev, SPAA '15), the dynamic priority scheduler of the paper's
    Sec. 6 and of its bfs/sssp benchmarks.

    [c * p] sequential binary heaps, each guarded by its own mutex.  {!push}
    locks one uniformly random lane; {!pop} inspects two random lanes and
    pops from the one whose top has the smaller priority.  Rank guarantees
    are probabilistic: {!pop} may return an element that is not the global
    minimum, so clients must tolerate out-of-order delivery (e.g. re-relax in
    SSSP).  Every pushed element is eventually popped exactly once. *)

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

(** Long-running worker threads around a MultiQueue, with exact termination
    detection via an in-flight counter — the paper's bfs/sssp execution model
    ("long-running worker threads that pop tasks from the MQ then execute
    them (potentially pushing new tasks) until the MQ is empty"). *)
module Scheduler : sig
  type mq := t
  type sched

  val create : mq -> sched

  val push : sched -> pri:int -> int -> unit
  (** Seed or spawn a task.  During a one-worker {!run} only its handler
      may push. *)

  val run : sched -> num_workers:int -> handler:(sched -> pri:int -> int -> unit) -> unit
  (** Runs tasks until all work (including transitively pushed tasks) has
      drained.  With [num_workers > 1] it spawns [num_workers - 1] domains
      that pop from the MultiQueue beside the calling one, then joins them.
      With [num_workers = 1] it spawns none: the queued tasks move into one
      private binary heap that the caller drains in exact priority order,
      with no lock and no shared counter.  [handler] may call {!push}.  An
      exception in a handler propagates after every worker has stopped; the
      tasks still queued are dropped, so the scheduler can run again. *)
end
