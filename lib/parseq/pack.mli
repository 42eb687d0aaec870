(** Parallel pack/filter — flags, a scan, and an indirect write.

    Pack is the paper's "pack" algorithmic pattern (Sec. 7.1 coverage list);
    its write phase is a SngInd whose offsets come from a prefix sum and are
    therefore unique by construction — precisely the situation where the
    programmer "knows" the scatter is safe but the type system cannot. *)

open Rpb_pool

val pack : Pool.t -> ('a -> bool) -> 'a array -> 'a array
(** Elements satisfying the predicate, in their original order. *)

val pack_index : Pool.t -> (int -> bool) -> int -> int array
(** [pack_index pool p n] is the sorted array of indices in [\[0, n)]
    satisfying [p]. *)

val partition : Pool.t -> ('a -> bool) -> 'a array -> 'a array * 'a array
(** [(yes, no)] keeping relative order in both halves. *)

val flatten : Pool.t -> 'a array array -> 'a array
(** Parallel concatenation via a scan of lengths and RngInd chunk writes. *)
