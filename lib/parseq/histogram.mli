(** Histogramming — the paper's [hist] benchmark family.

    Plain integer counts admit several implementations across the fear
    spectrum: deterministic per-block privatization (regular), atomic
    fetch-and-add (AW, "almost zero-cost but scary"), and striped locks.
    The "large struct" accumulator of Sec. 7.4 has no atomic analogue — only
    locks or privatization — which is exactly why the paper's hist slows down
    4x when synchronization replaces unsafe code. *)

open Rpb_pool

val histogram : Pool.t -> keys:int array -> buckets:int -> int array
(** Deterministic per-block counting + parallel merge. *)

val histogram_atomic : Pool.t -> keys:int array -> buckets:int -> int array
(** One atomic fetch-and-add per key. *)

val histogram_mutex :
  ?stripes:int -> Pool.t -> keys:int array -> buckets:int -> int array
(** Striped spin locks ({!Rpb_prim.Atomic_array.lock}, one padded row per
    stripe) around plain counters. *)

val histogram_seq : keys:int array -> buckets:int -> int array

(** Accumulator too large for a single atomic — the paper's hist-with-structs
    case. *)
type stats = {
  mutable count : int;
  mutable total : int;
  mutable vmin : int;
  mutable vmax : int;
}

val stats_empty : unit -> stats

val stats_equal : stats -> stats -> bool

type stats_mode = Stats_seq | Stats_mutex | Stats_private

val histogram_stats :
  mode:stats_mode -> Pool.t -> keys:int array -> values:int array ->
  buckets:int -> stats array
(** Per-bucket count/sum/min/max of [values] grouped by [keys].
    [Stats_mutex] takes one spin lock per bucket, whose word shares the
    bucket's row with its four accumulators (the 4x-slowdown
    configuration);
    [Stats_private] privatizes per block and merges. *)
