(** MultiQueue-scheduled graph traversals — the paper's [bfs] and [sssp]
    benchmarks (Sec. 6: dynamic priority-ordered task scheduling with
    long-running workers; tasks relax distances with atomic priority-writes
    and push discovered work). *)

open Rpb_pool

val bfs : Pool.t -> Csr.t -> src:int -> int array
(** Hop distances from [src] ([max_int] when unreachable), computed by
    one worker loop per pool worker popping (distance, vertex) tasks from a
    MultiQueue of four queues per worker.  Call it inside [Pool.run pool]
    for the workers to run in parallel; a [Pool.cancel_run] or [?deadline]
    of that run stops the traversal while it executes.  With one pool
    worker the tasks run in exact priority order from a private heap.

    A task relaxes its vertex's edges in one loop over the CSR arrays, with
    no closure per edge.  Each edge reads the target's distance with a
    relaxed load and makes the atomic fetch-min only when the new distance
    beats it: distances only decrease, so the skipped fetch-min could not
    have won. *)

val sssp : Pool.t -> Csr.t -> src:int -> int array
(** Weighted distances (non-negative weights; weight 1 when the graph has
    none), delta-less relaxed Dijkstra in the same loop as {!bfs}: the
    MultiQueue's probabilistic ordering means a vertex may be popped with a
    stale distance; the atomic fetch-min plus re-push keeps it correct. *)
