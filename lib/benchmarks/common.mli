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
