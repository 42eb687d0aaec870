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
