(** Stable counting sort and LSD radix sort for non-negative integer keys.

    Counting sort's scatter phase writes [out.(rank.(i)) <- a.(i)] where the
    ranks come from per-block bucket counts — unique by construction, the
    SngInd situation of the paper's isort/bw/sa benchmarks. *)

open Rpb_pool

val rank_by_key : Pool.t -> keys:int array -> buckets:int -> int array
(** [rank_by_key pool ~keys ~buckets] returns [dest] such that writing each
    element [i] to position [dest.(i)] is a stable sort by [keys.(i)].  All
    keys must lie in [\[0, buckets)]; any other key raises
    [Invalid_argument].

    Each block counts its keys into its own row of [buckets] counters; a
    sequential prefix over the rows, key-major then block-major, turns the
    counts into write cursors in place; each block then ranks its keys by
    advancing its own row.  Besides [dest] it allocates only the nb × buckets
    counters.  The blocks number up to 8 per worker of at least 1024 keys,
    capped at [n / buckets] (never below one per worker), so with n+1
    buckets one worker ranks in one block. *)

val counting_sort : Pool.t -> buckets:int -> int array -> int array
(** Stable sorted copy of an array of small non-negative integers. *)

val radix_sort : Pool.t -> int array -> int array
(** Sorted copy of an array of non-negative integers (LSD radix, 8-bit
    digits, as many passes as the maximum key requires). *)

val radix_sort_by : Pool.t -> key:('a -> int) -> 'a array -> 'a array
(** Stable LSD radix sort of arbitrary elements by a non-negative integer
    key. *)
