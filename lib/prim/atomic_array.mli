(** Arrays of atomically-accessed integers.

    An array is one flat block of [n] tagged words, like an [int array]: no
    per-cell box, so a cell access is one memory operation on the word
    itself (the layout of Rust's [&\[AtomicUsize\]]) and [make n] allocates
    one block.  The checked operations raise
    [Invalid_argument "index out of bounds"] on a bad index.

    {b Orderings.}  Each operation has the ordering of the Rust call it
    stands for:
    - {!get}, {!set} and their unchecked forms are relaxed
      ([Ordering::Relaxed]).  They are inline OCaml accesses of the array,
      one [mov] on x86-64, with no stub call and no fence.  A word is never
      torn, but a relaxed access orders nothing else: read another
      domain's stores after a join (every [Pool] join and [parallel_for]
      is one), or under {!lock}.
    - {!compare_and_set} is acquire-release (acquire when it fails).
    - {!fetch_and_add}, {!fetch_min} and {!fetch_max} are relaxed.
    - {!lock} is an acquire CAS; {!unlock} is a release store.
    Only the read-modify-writes and the lock pair are C stubs
    ([atomic_array_stubs.c]); none is sequentially consistent.

    The C11 atomics and the plain OCaml accesses act on the same heap
    words.  That mix sits outside OCaml's formal memory model, which knows
    only [Stdlib.Atomic] and non-atomic locations; the orderings above are
    those of the C11 model and of the hardware.  They are exercised only on
    x86-64, where CI runs; Arm is unverified.

    The representation is exposed as [private int array] so that the load
    and store primitives below compile inline even across an [-opaque]
    module boundary.  A coercion [(a :> int array)] reads the cells as
    {!get} does; writes go through this module only.

    This is the substrate for the paper's "placate the type system with
    atomics" variants (Listing 6e), for lock-free algorithm state
    (union-find, reservations, distances) and for the locks of the
    synchronized builds. *)

type t = private int array

val make : int -> int -> t
(** [make n v] allocates an array of [n] cells, all initialized to [v]. *)

val init : int -> (int -> int) -> t

external length : t -> int = "%array_length"

external get : t -> int -> int = "%array_safe_get"
(** Relaxed load. *)

external set : t -> int -> int -> unit = "%array_safe_set"
(** Relaxed store. *)

external unsafe_get : t -> int -> int = "%array_unsafe_get"
(** {!get} without the bounds check; callers must guarantee the index. *)

external unsafe_set : t -> int -> int -> unit = "%array_unsafe_set"

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

val lock : t -> int -> unit
(** [lock a i] takes the spin lock whose word is cell [i] (0 = free,
    1 = held; [make n 0] makes [n] free locks).  The first attempt is one
    acquire CAS; a waiter then reads the word until it looks free before
    retrying the CAS (test-and-test-and-set), with [Domain.cpu_relax]
    between reads and a 50 µs sleep after every 64, as the pool's helping
    [await] does.  Not reentrant.  Put the words a lock guards in the same
    row as its lock word, as Rust's [Mutex<T>] does. *)

val try_lock : t -> int -> bool
(** [try_lock a i] makes one acquire-CAS attempt at the lock {!lock} takes
    and tells whether it got it.  It never waits: a caller that finds the
    lock held can go and try another one. *)

val unlock : t -> int -> unit
(** [unlock a i] releases the lock taken by {!lock} with a release store of
    0.  The caller must hold it. *)

val cells_per_line : int
(** 8, the cells in a 64-byte cache line.  Lock words this many cells
    apart never share a line: give each lock a row of this many cells. *)

val to_array : t -> int array
(** A fresh copy, made in bulk.  It is not a snapshot if other domains
    write meanwhile. *)

val of_array : int array -> t
(** A fresh copy of the array. *)

val blit_from_array : int array -> t -> unit
(** [blit_from_array src dst] copies [src] over [dst] in bulk.
    Raises [Invalid_argument] if the lengths differ. *)
