open Rpb_core

type prepared = {
  size : string;
  run_seq : unit -> unit;
  run_par : Mode.t -> unit;
  verify : unit -> bool;
  snapshot : unit -> int array;
}

(* Digest helpers for [snapshot] implementations. *)

let digest_of_string s = Array.init (String.length s) (fun i -> Char.code s.[i])

let digest_sorted a =
  let c = Array.copy a in
  Array.sort Int.compare c;
  c

let digest_of_bool b = if b then 1 else 0

type entry = {
  name : string;
  full_name : string;
  inputs : string list;
  patterns : Pattern.access list;
  dynamic : bool;
  access_sites : (Pattern.access * int) list;
  mode_note : string;
  prepare : Rpb_pool.Pool.t -> input:string -> scale:int -> prepared;
}

let scaled base scale = base * (1 lsl scale)

type measurement = {
  mean_s : float;
  min_s : float;
  samples_s : float array;
  pool_stats : Rpb_pool.Pool.Stats.t;
}

(* Times [f] over [repeats] runs and attributes the scheduler activity of the
   whole window (all repeats) to the measurement, by diffing per-worker
   counter snapshots taken around it.  The workload runs exactly [repeats]
   times: every estimator (mean, min, median...) is derived from the one
   sample vector, never from separate re-runs. *)
let measure pool ~repeats f =
  let before = Rpb_pool.Pool.Stats.capture pool in
  let (), times = Rpb_prim.Timing.samples ~repeats f in
  let after = Rpb_pool.Pool.Stats.capture pool in
  let n = float_of_int (Array.length times) in
  {
    mean_s = Array.fold_left ( +. ) 0.0 times /. n;
    min_s = Array.fold_left min infinity times;
    samples_s = times;
    pool_stats = Rpb_pool.Pool.Stats.diff ~before ~after;
  }
