(** Sequential reference algorithms used to verify the parallel benchmarks
    (the oracle role PBBS's checkers play). *)

val bfs_distances : Csr.t -> src:int -> int array
(** Unweighted hop distances from [src]; [max_int] for unreachable.  A FIFO
    in one [int] array of [n] slots, and a direct loop over the CSR arrays:
    the relax loop of [Traverse.bfs], without the atomics. *)

val dijkstra : Csr.t -> src:int -> int array
(** Weighted shortest-path distances from [src] (weight 1 when the graph
    has none); [max_int] for unreachable.  Lazy-deletion Dijkstra on the
    allocation-free {!Rpb_mq.Binary_heap}, with the direct loop of
    {!bfs_distances}. *)

val connected_components : Csr.t -> int array
(** Treating edges as undirected: canonical (minimum-index) component label
    per vertex. *)

val num_components : Csr.t -> int

val is_independent_set : Csr.t -> bool array -> bool
(** No two selected vertices adjacent. *)

val is_maximal_independent_set : Csr.t -> bool array -> bool
(** Independent (a self-loop does not count), and every unselected vertex
    has a selected neighbour.  One allocation-free pass over the CSR
    arrays. *)

val is_matching : Csr.t -> edges:(int * int) array -> selected:bool array -> bool
(** Selected edges pairwise share no endpoint, and no selected edge is a
    self-loop.  Allocates one [bool] array of [n] matched flags. *)

val is_maximal_matching : Csr.t -> edges:(int * int) array -> selected:bool array -> bool
(** A matching, and every edge that is not a self-loop has a matched
    endpoint. *)

val spanning_forest_weight : Csr.t -> int
(** Total weight of a minimum spanning forest (sequential Kruskal), for
    verifying msf. *)
