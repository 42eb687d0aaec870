(* Length-prefixed key=value line protocol for [rpb serve].  See the mli for
   the framing and field contracts. *)

exception Malformed of string

(* ------------------------------------------------------------------ *)
(* Framing *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (* next unread byte in [buf] *)
  mutable len : int;  (* valid bytes in [buf] *)
}

let reader fd = { fd; buf = Bytes.create 4096; pos = 0; len = 0 }

(* Refill the buffer; false on EOF. *)
let refill r =
  let n = Unix.read r.fd r.buf 0 (Bytes.length r.buf) in
  if n = 0 then false
  else begin
    r.pos <- 0;
    r.len <- n;
    true
  end

let read_byte r =
  if r.pos >= r.len && not (refill r) then None
  else begin
    let c = Bytes.get r.buf r.pos in
    r.pos <- r.pos + 1;
    Some c
  end

let default_max_len = 65536

let read_frame ?(max_len = default_max_len) r =
  (* Length prefix: decimal digits then '\n'.  Reject before accumulating an
     absurd length — the prefix is the attack surface of the framing. *)
  match read_byte r with
  | None -> None
  | Some c0 ->
    let rec length acc n_digits c =
      match c with
      | '\n' -> if n_digits = 0 then raise (Malformed "empty length prefix") else acc
      | '0' .. '9' ->
        let acc = (acc * 10) + (Char.code c - Char.code '0') in
        if acc > max_len then
          raise (Malformed (Printf.sprintf "frame length exceeds %d" max_len));
        (match read_byte r with
         | None -> raise (Malformed "EOF inside length prefix")
         | Some c -> length acc (n_digits + 1) c)
      | _ -> raise (Malformed "non-digit in length prefix")
    in
    let n = length 0 0 c0 in
    let payload = Bytes.create n in
    let rec fill off =
      if off < n then begin
        let avail = r.len - r.pos in
        if avail > 0 then begin
          let take = min avail (n - off) in
          Bytes.blit r.buf r.pos payload off take;
          r.pos <- r.pos + take;
          fill (off + take)
        end
        else if refill r then fill off
        else raise (Malformed "EOF inside frame payload")
      end
    in
    fill 0;
    Some (Bytes.unsafe_to_string payload)

let write_frame fd payload =
  let frame =
    Printf.sprintf "%d\n%s" (String.length payload) payload
  in
  let b = Bytes.unsafe_of_string frame in
  let total = Bytes.length b in
  let rec send off =
    if off < total then
      let n = Unix.write fd b off (total - off) in
      send (off + n)
  in
  send 0

(* ------------------------------------------------------------------ *)
(* key=value lines *)

let sanitize s =
  let s = if String.length s > 200 then String.sub s 0 200 else s in
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | ':' | '/' | '-' -> c
      | _ -> '_')
    s

let fields_of_line line =
  String.split_on_char ' ' line
  |> List.filter_map (fun tok ->
         if tok = "" then None
         else
           match String.index_opt tok '=' with
           | None -> None
           | Some i ->
             Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))

let find k fields = List.assoc_opt k fields

let int_field k fields =
  match find k fields with
  | None -> Ok None
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "field %s: not an integer (%s)" k (sanitize v)))

let float_field k fields =
  match find k fields with
  | None -> Ok None
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "field %s: not a number (%s)" k (sanitize v)))

(* ------------------------------------------------------------------ *)
(* Requests *)

type request = {
  id : int;
  verb : string;
  bench : string;
  input : string option;
  mode : string;
  scale : int;
  deadline_s : float option;
  spin_ms : int;
}

let request ?(verb = "run") ?input ?(mode = "unsafe") ?(scale = 0) ?deadline_s
    ?(spin_ms = 0) ~id ~bench () =
  { id; verb; bench; input; mode; scale; deadline_s; spin_ms }

let stats_request ~id = request ~verb:"stats" ~id ~bench:"-" ()
let health_request ~id = request ~verb:"health" ~id ~bench:"-" ()

let request_line r =
  let b = Buffer.create 96 in
  (* [verb=run] is implicit on the wire, so pre-verb servers keep parsing
     plain run requests unchanged. *)
  if r.verb <> "run" then
    Buffer.add_string b (Printf.sprintf "verb=%s " (sanitize r.verb));
  Buffer.add_string b
    (Printf.sprintf "id=%d bench=%s mode=%s scale=%d" r.id (sanitize r.bench)
       (sanitize r.mode) r.scale);
  (match r.input with
   | Some i -> Buffer.add_string b (" input=" ^ sanitize i)
   | None -> ());
  (match r.deadline_s with
   | Some d ->
     Buffer.add_string b
       (Printf.sprintf " deadline_ms=%d" (int_of_float (Float.round (d *. 1e3))))
   | None -> ());
  if r.spin_ms > 0 then
    Buffer.add_string b (Printf.sprintf " spin_ms=%d" r.spin_ms);
  Buffer.contents b

let ( let* ) r f = Result.bind r f

let parse_request line =
  let fields = fields_of_line line in
  let* id =
    match int_field "id" fields with
    | Ok (Some i) -> Ok i
    | Ok None -> Error "missing id field"
    | Error e -> Error e
  in
  let verb = Option.value (find "verb" fields) ~default:"run" in
  let* bench =
    match find "bench" fields with
    | Some b when b <> "" -> Ok b
    | _ ->
      (* Non-run verbs (e.g. [stats]) address the server, not a bench. *)
      if verb = "run" then Error "missing bench field" else Ok "-"
  in
  let* scale = int_field "scale" fields in
  let* deadline_ms = int_field "deadline_ms" fields in
  let* deadline_s =
    match deadline_ms with
    | None -> Ok None
    | Some ms when ms > 0 -> Ok (Some (float_of_int ms *. 1e-3))
    | Some _ -> Error "deadline_ms must be positive"
  in
  let* spin_ms = int_field "spin_ms" fields in
  let* scale =
    match scale with
    | None -> Ok 0
    | Some s when s >= 0 -> Ok s
    | Some _ -> Error "scale must be >= 0"
  in
  Ok
    {
      id;
      verb;
      bench;
      input = find "input" fields;
      mode = Option.value (find "mode" fields) ~default:"unsafe";
      scale;
      deadline_s;
      spin_ms = (match spin_ms with Some s when s > 0 -> s | _ -> 0);
    }

(* ------------------------------------------------------------------ *)
(* Replies *)

type error_kind =
  | Overloaded
  | Stalled
  | Cancelled
  | Malformed_request
  | Unknown_bench
  | Shutting_down
  | Failed

let error_kinds =
  [
    (Overloaded, "overloaded");
    (Stalled, "stalled");
    (Cancelled, "cancelled");
    (Malformed_request, "malformed");
    (Unknown_bench, "unknown-bench");
    (Shutting_down, "shutdown");
    (Failed, "failed");
  ]

let error_kind_name k = List.assoc k error_kinds

let error_kind_of_name n =
  List.find_map (fun (k, s) -> if s = n then Some k else None) error_kinds

type reply =
  | Ok_reply of { id : int; digest : int; queue_ms : float; exec_ms : float }
  | Err_reply of {
      id : int;
      kind : error_kind;
      retry_after_ms : int option;
      msg : string;
    }

let reply_id = function Ok_reply { id; _ } | Err_reply { id; _ } -> id

let reply_line = function
  | Ok_reply { id; digest; queue_ms; exec_ms } ->
    Printf.sprintf "id=%d status=ok digest=%d queue_ms=%.3f exec_ms=%.3f" id
      digest queue_ms exec_ms
  | Err_reply { id; kind; retry_after_ms; msg } ->
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Printf.sprintf "id=%d status=error kind=%s" id (error_kind_name kind));
    (match retry_after_ms with
     | Some ms -> Buffer.add_string b (Printf.sprintf " retry_after_ms=%d" ms)
     | None -> ());
    if msg <> "" then Buffer.add_string b (" msg=" ^ sanitize msg);
    Buffer.contents b

let parse_reply line =
  let fields = fields_of_line line in
  let* id =
    match int_field "id" fields with
    | Ok (Some i) -> Ok i
    | Ok None -> Error "missing id field"
    | Error e -> Error e
  in
  match find "status" fields with
  | Some "ok" ->
    let* digest =
      match int_field "digest" fields with
      | Ok (Some d) -> Ok d
      | Ok None -> Error "ok reply missing digest"
      | Error e -> Error e
    in
    let* queue_ms = float_field "queue_ms" fields in
    let* exec_ms = float_field "exec_ms" fields in
    Ok
      (Ok_reply
         {
           id;
           digest;
           queue_ms = Option.value queue_ms ~default:0.;
           exec_ms = Option.value exec_ms ~default:0.;
         })
  | Some "error" ->
    let* kind =
      match find "kind" fields with
      | Some n -> (
        match error_kind_of_name n with
        | Some k -> Ok k
        | None -> Error ("unknown error kind " ^ sanitize n))
      | None -> Error "error reply missing kind"
    in
    let* retry_after_ms = int_field "retry_after_ms" fields in
    Ok
      (Err_reply
         {
           id;
           kind;
           retry_after_ms;
           msg = Option.value (find "msg" fields) ~default:"";
         })
  | Some s -> Error ("unknown status " ^ sanitize s)
  | None -> Error "missing status field"

(* Order-sensitive FNV-1a-style fold, masked to 62 bits so the hash stays a
   valid OCaml int on 64-bit and prints without a sign. *)
let digest_hash a =
  let mask = (1 lsl 62) - 1 in
  let h = ref 0x1403_7fb4_46a3_9fd1 in
  Array.iter
    (fun x ->
      h := (!h lxor (x land mask)) * 0x100_0000_01b3 land mask)
    a;
  (* Fold the length in so a prefix and its extension never collide
     silently. *)
  ((!h lxor Array.length a) * 0x100_0000_01b3) land mask
