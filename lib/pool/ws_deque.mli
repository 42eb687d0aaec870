(** Chase–Lev work-stealing deque.

    One domain owns the deque and uses {!push} and {!pop} on the bottom end;
    any number of thief domains use {!steal} on the top end.  This is the
    scheduling substrate underneath the fork-join pool, mirroring the deques
    inside Rayon and Cilk that the paper's benchmarks rely on.

    The implementation follows Chase and Lev (SPAA '05) with the usual
    single-CAS [steal] and the owner/thief race on the last element resolved
    by a CAS in [pop].  Cells live in an atomic-reference buffer that is
    replaced wholesale on growth, so thieves never observe a torn resize. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] returns an empty deque.  [capacity] (default 64) is the
    initial power-of-two buffer size; the deque grows as needed. *)

val push : 'a t -> 'a -> unit
(** Owner only.  Pushes onto the bottom. *)

val pop : 'a t -> 'a option
(** Owner only.  Pops from the bottom (LIFO for the owner, preserving the
    depth-first execution order fork-join relies on). *)

val steal : 'a t -> 'a option
(** Any domain.  Steals from the top (FIFO for thieves).  Returns [None] when
    the deque is empty or the steal lost a race. *)

val size : 'a t -> int
(** Approximate number of elements; exact only when quiescent. *)

val is_empty : 'a t -> bool
