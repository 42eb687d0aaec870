(** Resizable sequential binary min-heap of (priority, value) integer pairs —
    the sequential priority queue each MultiQueue lane wraps (paper Sec. 6),
    and the queue of the sequential Dijkstra reference.

    The heap is two flat [int] arrays.  Reading or removing the minimum
    allocates nothing: hot loops read {!min_pri} and {!min_val}, then call
    {!remove_min}.  {!push} and {!remove_min} move a hole along one
    root-to-leaf path and write the element being placed once.  Only growth
    allocates: a full heap doubles its capacity. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty heap with room for [capacity] elements (default 16, at least
    1) before it grows. *)

val size : t -> int

val is_empty : t -> bool

val push : t -> pri:int -> int -> unit

val min_pri : t -> int
(** The smallest priority.  Raises [Invalid_argument] on an empty heap. *)

val min_val : t -> int
(** The value stored with {!min_pri}; among equal priorities, any one of
    them.  Raises [Invalid_argument] on an empty heap. *)

val remove_min : t -> unit
(** Removes the element {!min_pri} and {!min_val} describe.  Raises
    [Invalid_argument] on an empty heap. *)

val peek_min : t -> (int * int) option
(** [(priority, value)] with the smallest priority, without removing it.
    Allocates the pair; for tests and cold paths. *)

val pop_min : t -> (int * int) option
(** {!peek_min}, then {!remove_min}. *)

val to_sorted_list : t -> (int * int) list
(** Destructive: drains the heap in priority order (for tests). *)
