(** Lock-free concurrent union-find (disjoint sets) — the substrate of the
    spanning-forest benchmarks (sf, msf).

    Parents live in an atomic array; [link] puts the larger root under the
    smaller with compare-and-set and retries on races, and [find] applies
    lock-free path halving: each step points an element at its grandparent
    (one best-effort CAS, skipped when the parent is the root) and continues
    from the grandparent.  Linking by index (min root wins) makes the final
    forest deterministic regardless of interleaving. *)

type t

val create : int -> t
(** [create n]: n singleton sets [0 .. n-1]. *)

val find : t -> int -> int
(** Current root of the element's set; safe to call concurrently with
    unions (the result may be stale the instant it returns, as usual). *)

val link : t -> int -> int -> int
(** [link t a b] merges the two sets and returns the root it linked (the
    larger of the two roots, now a child of the smaller), or [-1] if the
    sets were already one.  Among racing links of the same two sets exactly
    one returns a root, and a vertex is returned as the linked root at most
    once over the structure's lifetime, since a linked root never becomes a
    root again. *)

val union : t -> int -> int -> bool
(** [union t a b] is [link t a b >= 0]. *)

val same : t -> int -> int -> bool
(** Quiescently exact; under concurrency may return a stale [false]. *)

val count_roots : Rpb_pool.Pool.t -> t -> int
(** Number of disjoint sets (call when quiescent). *)

val components : Rpb_pool.Pool.t -> t -> int array
(** [components pool t] maps every element to its canonical root (call when
    quiescent). *)

(** The same [find] and [link] on a plain [int array] of parents ([i] is a
    root iff [parent.(i) = i]), for single-threaded callers: the sequential
    baselines and the references. *)
module Seq : sig
  val find : int array -> int -> int
  val link : int array -> int -> int -> int
end
