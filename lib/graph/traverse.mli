(** MultiQueue-scheduled graph traversals — the paper's [bfs] and [sssp]
    benchmarks (Sec. 6: dynamic priority-ordered task scheduling with
    long-running workers; tasks relax distances with atomic priority-writes
    and push discovered work). *)

open Rpb_pool

val bfs : Pool.t -> Csr.t -> src:int -> int array
(** Hop distances from [src] ([max_int] when unreachable), computed by
    worker domains popping (distance, vertex) tasks from a MultiQueue of
    four queues per worker. *)

val sssp : Pool.t -> Csr.t -> src:int -> int array
(** Weighted distances (non-negative weights), delta-less relaxed Dijkstra:
    the MultiQueue's probabilistic ordering means a vertex may be popped with
    a stale distance; the atomic fetch-min plus re-push keeps it correct. *)
