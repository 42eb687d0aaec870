(** Machine-readable benchmark output (the BENCH_*.json schema).

    Self-contained JSON support (the container carries no yojson): a value
    type, a compact printer, a parser, and the typed record the bench harness
    emits for every timed benchmark run.  CI archives these files so future
    PRs can diff scheduler behaviour — times, steals, task counts — against
    earlier commits mechanically instead of by eye. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

val to_string : json -> string
(** Compact (single-line) JSON.  NaN and infinities print as [null]; floats
    use the shortest decimal form that round-trips, with integral values
    keeping a [".0"] suffix so the int/float distinction survives. *)

val of_string : string -> json
(** Parses a complete JSON document.  @raise Parse_error on malformed input
    or trailing garbage. *)

val member : string -> json -> json
(** Object field lookup. @raise Parse_error when absent or not an object. *)

val member_opt : string -> json -> json option
(** Like {!member} but [None] when the key is absent (still
    @raise Parse_error when the value is not an object).  The accessor for
    fields added by later schema versions. *)

val get_int : json -> int

val get_float : json -> float
(** Accepts [Int] too. *)

val get_bool : json -> bool
val get_str : json -> string
val get_list : json -> json list

(** {1 The benchmark-result schema} *)

val schema_version : int
(** Version written into every emitted document.  v2 added the "profile"
    document kind ([rpb profile], [Rpb_obs]); v3 added the per-repeat
    [samples_ns] vector and the [smoke] flag to each result record (both
    optional on read, so older documents keep parsing). *)

val accepted_schema_versions : int list
(** Versions {!records_of_doc} still parses (currently [[1; 2; 3]]). *)

type worker_stats = {
  worker_id : int;
  tasks_executed : int;
  steals_ok : int;
  steals_failed : int;
  idle_episodes : int;
  max_deque_depth : int;
}

type record = {
  bench : string;
  input : string;
  mode : string;  (** "seq" | "unsafe" | "checked" | "sync" *)
  scale : int;
  threads : int;
  repeats : int;
  mean_ns : float;
  min_ns : float;
  samples_ns : float array;
      (** per-repeat elapsed times in run order (v3); [[||]] when read from a
          pre-v3 document — the statistics layer ([Rpb_obs.Stats]) then falls
          back to the point estimates *)
  smoke : bool;
      (** one-shot smoke run (the [--json] registry listing): never compared
          against baselines *)
  verified : bool;
  workers : worker_stats list;
}

val workers_of_pool_stats : Rpb_pool.Pool.Stats.t -> worker_stats list

val worker_to_json : worker_stats -> json
val worker_of_json : json -> worker_stats
(** Exposed for the profile document ([Rpb_obs.Profile]), which embeds the
    same per-worker counter shape. *)

val record_to_json : record -> json
val record_of_json : json -> record

val doc : meta:(string * json) list -> record list -> json
(** The top-level document: [{"schema_version": ..., "meta": {...},
    "results": [...]}]. *)

val records_of_doc : json -> record list
(** Inverse of {!doc} (checks [schema_version]). *)

val write_doc : path:string -> meta:(string * json) list -> record list -> unit
val read_doc : string -> record list
