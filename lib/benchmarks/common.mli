(** Shared shape of a prepared benchmark instance. *)

open Rpb_core

type prepared = {
  size : string;  (** human-readable description of the generated input *)
  run_seq : unit -> unit;      (** the sequential baseline (PBBS stand-in) *)
  run_par : Mode.t -> unit;    (** the parallel implementation under a switch *)
  verify : unit -> bool;       (** checks the most recent run's output *)
  snapshot : unit -> int array;
      (** canonical integer digest of the most recent run's output, for the
          differential oracle ([lib/check]): any two {e correct} runs on this
          prepared input — sequential baseline or any parallel mode, any
          executor — must produce element-wise equal digests.  Benchmarks
          with a deterministic output digest the output itself (sorted keys,
          suffix array, distances...); benchmarks whose output is
          schedule-dependent but specification-constrained (mis, mm, sf,
          msf, dr, lrs) digest the checked invariants instead.

          Contract: a snapshot carries everything [verify] checks.  If the
          snapshot of a run equals the snapshot of a sequential run for
          which [verify] held, then [verify] holds for that run too.  The
          request server relies on this: it verifies the sequential run
          once per prepared instance and then only compares each parallel
          run's snapshot against it. *)
}

type entry = {
  name : string;
  full_name : string;
  inputs : string list;   (** valid input names, first one is the default *)
  patterns : Pattern.access list;  (** Table 1 row *)
  dynamic : bool;         (** Table 1 "task dispatch: dynamic" column *)
  access_sites : (Pattern.access * int) list;
      (** number of parallel-region shared-data access sites per pattern in
          our implementation — the Fig. 3 raw data *)
  mode_note : string;     (** which switches differ for this benchmark *)
  prepare : Rpb_pool.Pool.t -> input:string -> scale:int -> prepared;
}

val scaled : int -> int -> int
(** [scaled base scale = base * 2^scale]. *)

(** {2 Digest helpers for [snapshot] implementations} *)

val digest_of_string : string -> int array
(** Byte codes of the string. *)

val digest_sorted : int array -> int array
(** Sorted copy — canonicalizes outputs whose element {e order} is
    schedule-dependent (hash-set contents, etc.). *)

val digest_of_bool : bool -> int

type measurement = {
  mean_s : float;  (** arithmetic mean over the repeats *)
  min_s : float;   (** noise-robust min over the repeats *)
  samples_s : float array;
      (** every per-repeat elapsed time, in run order — the raw data both
          point estimates above are derived from, carried through to the
          [BENCH_*.json] v3 records for noise-aware regression testing *)
  pool_stats : Rpb_pool.Pool.Stats.t;
      (** per-worker scheduler activity across all the repeats *)
}

val measure : Rpb_pool.Pool.t -> repeats:int -> (unit -> unit) -> measurement
(** [measure pool ~repeats f] runs [f] exactly [repeats] times, snapshotting
    the pool's per-worker counters around the whole window — the per-run stat
    capture behind both the human tables and the [BENCH_*.json] records.
    Every estimator is derived from the one sample vector; the workload is
    never re-run per estimator. *)
