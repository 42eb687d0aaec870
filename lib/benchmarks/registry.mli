(** The RPB suite: all 14 benchmarks and the data behind Table 1, Table 3 and
    Fig. 3. *)

open Rpb_core

val all : Common.entry list
(** In Table 1 order: bw, lrs, sa, dr, mis, mm, sf, msf, sort, dedup, hist,
    isort, bfs, sssp. *)

val find : string -> Common.entry option

val names : string list

val access_distribution : unit -> (Pattern.access * int * float) list
(** Per-pattern (site count, percentage) across the suite — Fig. 3. *)
