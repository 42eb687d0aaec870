(** Spanning forest (sf) and minimum spanning forest (msf).

    [sf] walks the CSR in one parallel loop over vertices and races every
    edge through a lock-free union-find: each successful link contributes a
    forest edge (AW through the parent array, arbitrated by CAS), recorded
    in a slot indexed by the root it linked.

    [msf] is Boruvka: every round each component elects its lightest incident
    edge with an atomic priority-write, elected edges union components, and
    the process repeats — dynamic rounds over unstructured data. *)

open Rpb_pool

val spanning_forest : Pool.t -> Csr.t -> int array
(** CSR edge ids (positions in [targets], the indices of [Csr.edges g]) of a
    spanning forest of the undirected interpretation of [g].  Exactly
    [n - #components] edges, ordered by the root each one linked; which
    edges are chosen depends on the schedule. *)

val spanning_forest_seq : Csr.t -> int array
(** The same CSR loop on a plain parent array with the same linking and
    path-halving rules: the first edge in CSR order joining two components
    wins.  Edge ids in CSR order. *)

val minimum_spanning_forest : Pool.t -> Csr.t -> int array
(** Edge indices of a minimum-weight spanning forest.  Ties are broken by
    edge index, making the result deterministic. *)

val forest_weight : Csr.t -> int array -> int
(** Total weight of the chosen edges. *)
