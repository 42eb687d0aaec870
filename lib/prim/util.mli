(** Small shared helpers. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a / b] rounded up.  [b] must be positive. *)

val ceil_pow2 : int -> int
(** Smallest power of two [>= n] (for [n >= 1]). *)

val ilog2 : int -> int
(** Floor of log2 for positive integers. *)

val array_for_all_i : (int -> 'a -> bool) -> 'a array -> bool

val is_sorted : ?cmp:('a -> 'a -> int) -> 'a array -> bool
(** Whether the array is non-decreasing under [cmp] (default polymorphic
    compare). *)

val is_strictly_increasing : int array -> bool

val array_sum : int array -> int
