(** Parallel prefix sums (scans) — the canonical regular pattern the paper's
    abstract names ("Rust ... delivers fearlessness for program phases
    comprising only regular parallelism, e.g., prefix-sum").

    Implemented with the standard two-pass block algorithm: per-block
    reductions (RO), a sequential scan of the small block-sum array, and a
    per-block Stride pass writing results. *)

open Rpb_pool

val exclusive : Pool.t -> ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a array * 'a
(** [exclusive pool f id a] returns [(out, total)] with
    [out.(i) = f (... f (f id a.(0)) ...) a.(i-1)] and [total] the reduction
    of the whole array.  [f] must be associative with identity [id]. *)

val inclusive : Pool.t -> ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a array
(** [inclusive pool f id a] returns [out] with [out.(i)] the reduction of
    [a.(0..i)]. *)

val exclusive_int : Pool.t -> int array -> int array * int
(** Specialized integer [(+)] exclusive scan. *)

val inclusive_int : Pool.t -> int array -> int array
