(** Arrays of atomically-accessed integers.

    An array is one flat block of [n] tagged words, like an [int array]: no
    per-cell box, so a cell access is a single C11 atomic on the word itself
    (the layout of Rust's [&[AtomicU32]]) and [make n] allocates one block.
    Every operation is sequentially consistent, as [Stdlib.Atomic] is: loads
    are SC loads, {!set} is an SC store (not a release store), and the
    read-modify-writes are SC.  The checked operations raise
    [Invalid_argument "index out of bounds"] on a bad index.

    This is the substrate for the paper's "placate the type system with
    atomics" variants (Listing 6e) and for lock-free algorithm state
    (union-find, reservations, distances). *)

type t

val make : int -> int -> t
(** [make n v] allocates an array of [n] cells, all initialized to [v]. *)

val init : int -> (int -> int) -> t

val length : t -> int

val get : t -> int -> int
(** Atomic load. *)

val set : t -> int -> int -> unit
(** Atomic store. *)

val unsafe_get : t -> int -> int
(** {!get} without the bounds check; callers must guarantee the index. *)

val unsafe_set : t -> int -> int -> unit

val compare_and_set : t -> int -> int -> int -> bool
(** [compare_and_set a i expected v] atomically replaces [a.(i)] with [v] if
    it currently equals [expected]; returns whether the swap happened. *)

val fetch_and_add : t -> int -> int -> int
(** [fetch_and_add a i d] atomically adds [d] and returns the previous
    value. *)

val fetch_min : t -> int -> int -> int
(** [fetch_min a i v] atomically lowers [a.(i)] to [min a.(i) v] and returns
    the value observed just before the successful update (or the current value
    if no update was needed).  This is the priority-update primitive used by
    SSSP and MSF. *)

val fetch_max : t -> int -> int -> int

val to_array : t -> int array
(** Snapshot copy.  Each cell is read atomically; the snapshot as a whole is
    not linearizable with respect to concurrent writers. *)

val of_array : int array -> t

val blit_from_array : int array -> t -> unit
(** [blit_from_array src dst] stores [src.(i)] into every cell [i] of [dst].
    Raises [Invalid_argument] if the lengths differ. *)
