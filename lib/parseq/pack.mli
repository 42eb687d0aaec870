(** Parallel pack/filter — PBBS-style blocked passes.

    Pack is the paper's "pack" algorithmic pattern (Sec. 7.1 coverage list).
    One pass evaluates the predicate once per element into a byte flag and
    counts each block's hits; a sequential prefix over the block counts
    gives every block its output offset; a second pass copies each block's
    flagged elements into its own contiguous output range.  The write is a
    per-block range (RngInd), disjoint by construction: each block writes
    exactly the hits it counted from the stored flags, so it stays inside
    its range even when the predicate is impure.  Beyond the output, a pack
    of [n] elements allocates [n] flag bytes and one offset per block. *)

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
