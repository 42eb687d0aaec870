(** The [rpb serve] wire protocol: length-prefixed lines of [key=value]
    fields over a Unix-domain stream socket.

    Each frame is an ASCII decimal payload length, a ['\n'], then exactly
    that many payload bytes.  The payload is one line of space-separated
    [key=value] fields (no spaces or newlines inside keys or values — values
    are sanitized on write).  Unknown keys are ignored on read, so fields
    can be added without breaking old peers.

    A {e request} names a job against the server's cached preloaded inputs:
    a registry benchmark ([bench=hist], with optional [input], [mode],
    [scale]), or the built-in [bench=spin] busy-loop (a cancellable
    synthetic job, [spin_ms] of parallel work — the load generator's
    deterministic way to occupy the pool).  Every request carries a
    client-chosen [id] and an optional per-request [deadline_ms].

    A {e reply} echoes the [id] and is either [status=ok] — with the
    canonical digest hash of the benchmark output, queueing and execution
    times — or [status=error] with a structured {!error_kind} (and, for
    {!Overloaded}, a [retry_after_ms] backoff hint). *)

exception Malformed of string
(** Raised by {!read_frame} on a frame that violates the framing layer
    (oversized length, non-numeric prefix, truncated payload). *)

(** {1 Framing} *)

type reader
(** Buffered frame reader over a file descriptor (one per connection). *)

val reader : Unix.file_descr -> reader

val read_frame : ?max_len:int -> reader -> string option
(** Next payload, or [None] on clean EOF.  [max_len] (default 65536) bounds
    the accepted payload length — a garbage length prefix must not make the
    server allocate unbounded memory.  @raise Malformed on framing errors.
    May raise [Unix.Unix_error] if the peer resets the connection. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame (length, newline, payload).  Raises [Unix.Unix_error]
    (e.g. [EPIPE]) when the peer is gone. *)

(** {1 Requests} *)

type request = {
  id : int;  (** client-chosen; echoed in the reply *)
  verb : string;
      (** ["run"] (implicit on the wire) executes a job; ["stats"] asks for
          a live metrics snapshot and ["health"] for a liveness check — for
          both, the reply frame is a raw JSON document ([kind="metrics"] /
          [kind="health"]), not a [key=value] line *)
  bench : string;  (** registry benchmark name, or ["spin"]; ["-"] for
                       non-run verbs *)
  input : string option;  (** benchmark input (default: the entry's first) *)
  mode : string;  (** "unsafe" | "checked" | "sync" *)
  scale : int;
  deadline_s : float option;  (** per-request deadline *)
  spin_ms : int;  (** busy-work duration for [bench = "spin"] *)
}

val request : ?verb:string -> ?input:string -> ?mode:string -> ?scale:int ->
  ?deadline_s:float -> ?spin_ms:int -> id:int ->
  bench:string -> unit -> request
(** Request with protocol defaults ([verb = "run"], [mode = "unsafe"],
    [scale = 0], no deadline). *)

val stats_request : id:int -> request
(** A [verb=stats] request: the server replies with one frame whose payload
    is the current live-metrics snapshot as JSON. *)

val health_request : id:int -> request
(** A [verb=health] request: the server replies with one frame whose
    payload is a [kind="health"] document with [status = "ok"] and the
    server's [max_queue].  Like [stats] it bypasses admission and is served
    even while draining. *)

val request_line : request -> string
val parse_request : string -> (request, string) result

(** {1 Replies} *)

type error_kind =
  | Overloaded  (** admission control shed the request; retry after the hint *)
  | Stalled  (** the per-request deadline fired ([Pool.Stalled]) *)
  | Cancelled  (** the request's run was cancelled (client disconnect) *)
  | Malformed_request  (** unparseable request, bad input/mode/scale *)
  | Unknown_bench
  | Shutting_down  (** server draining: request not (fully) served *)
  | Failed  (** the job raised (e.g. an injected fault); [msg] says what *)

val error_kind_name : error_kind -> string
val error_kind_of_name : string -> error_kind option

type reply =
  | Ok_reply of {
      id : int;
      digest : int;  (** {!digest_hash} of the benchmark's canonical snapshot *)
      queue_ms : float;  (** admission-queue residency *)
      exec_ms : float;  (** [Pool.run] service time *)
    }
  | Err_reply of {
      id : int;  (** [-1] when the request id itself was unparseable *)
      kind : error_kind;
      retry_after_ms : int option;  (** only for {!Overloaded} *)
      msg : string;  (** sanitized detail, possibly empty *)
    }

val reply_id : reply -> int
val reply_line : reply -> string
val parse_reply : string -> (reply, string) result

val digest_hash : int array -> int
(** Order-sensitive 62-bit FNV-style fold of a canonical digest
    ([Common.snapshot]) — equal arrays give equal hashes, so a reply can
    carry the whole digest as one comparable integer. *)

val sanitize : string -> string
(** Replace bytes outside [[A-Za-z0-9._:/-]] with ['_'] and truncate to 200
    bytes — what {!reply_line} applies to [msg]. *)
