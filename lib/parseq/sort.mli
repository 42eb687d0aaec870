(** Comparison sorts.

    [merge_sort] is the divide-and-conquer of the paper's Listing 9 — fork
    two recursive sorts with [join], then a parallel merge.  [sample_sort] is
    the algorithm behind the paper's [sort] benchmark (Sec. 7.1 "For sort, we
    use sample sort"): sample, pick pivots, bucket by binary search, scatter
    into bucket ranges (RngInd-style disjoint chunks), then sort each bucket.
    Both are stable. *)

open Rpb_pool

val seq_cutoff : int
(** Below this size all sorts fall back to sequential stable sort. *)

val merge_sort : Pool.t -> cmp:('a -> 'a -> int) -> 'a array -> 'a array
(** Out-of-place stable merge sort; the input is not modified. *)

val merge_sort_inplace : Pool.t -> cmp:('a -> 'a -> int) -> 'a array -> unit

val sample_sort : Pool.t -> cmp:('a -> 'a -> int) -> 'a array -> 'a array
(** Out-of-place stable sample sort; the input is not modified. *)

val is_sorted : Pool.t -> cmp:('a -> 'a -> int) -> 'a array -> bool
