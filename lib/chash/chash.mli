(** Phase-concurrent hash set for non-negative integers — the paper's
    Listing 8 data structure, PBBS-style.

    Inserts from any number of domains race on the same slots and are
    arbitrated with compare-and-set (the AW pattern: arbitrary read-writes
    through a hash function's indirection).  The table is "phase-concurrent":
    concurrent inserts are linearizable, but inserts must not overlap with
    {!elements} snapshots.

    Linear probing over a power-of-two array; no deletion (none of the RPB
    benchmarks needs it); no growth — size the table at creation, as PBBS
    does. *)

type t

exception Full
(** Raised by {!insert} when probing wraps all the way around. *)

val create : capacity:int -> t
(** A table able to hold at least [capacity] elements at load factor <= 0.5.
    Keys must be in [\[0, max_int)]. *)

val slots : t -> int
(** Physical number of slots (a power of two). *)

val insert : t -> int -> bool
(** [insert t k] adds [k]; returns [true] iff [k] was not already present.
    Safe to call concurrently from any number of domains.  Allocates
    nothing. *)

val mem : t -> int -> bool

val count : t -> int
(** Number of distinct elements inserted.  Exact when quiescent. *)

val elements : Rpb_pool.Pool.t -> t -> int array
(** The distinct elements, in slot order (unspecified), packed straight
    from the slots with no intermediate copy.  Must not run concurrently
    with inserts. *)

val clear : Rpb_pool.Pool.t -> t -> unit
