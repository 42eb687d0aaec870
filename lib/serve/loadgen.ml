(* Load generator for the serve path.  One writer systhread per client
   paces sends from a seeded schedule; one reader systhread per connection
   matches replies to the pending table.  All client threads fold their
   counters into a shared accumulator at the end. *)

open Rpb_benchmarks
module Rng = Rpb_prim.Rng
module Timing = Rpb_prim.Timing

type config = {
  socket_path : string;
  clients : int;
  requests_per_client : int;
  seed : int;
  mean_gap_ms : int;
  benches : string list;
  mode : string;
  scale : int;
  deadline_ms : int option;
  spin_ms : int;
  burst : int;
  kill_every : int;
  max_retries : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  wait_cap_s : float;
  json_path : string option;
}

let default_config ~socket_path =
  {
    socket_path;
    clients = 4;
    requests_per_client = 16;
    seed = 42;
    mean_gap_ms = 10;
    benches = [ "hist" ];
    mode = "unsafe";
    scale = 0;
    deadline_ms = None;
    spin_ms = 20;
    burst = 0;
    kill_every = 0;
    max_retries = 5;
    backoff_base_ms = 5;
    backoff_cap_ms = 200;
    wait_cap_s = 15.0;
    json_path = None;
  }

type result = {
  sent : int;
  ok : int;
  shed_replies : int;
  retries : int;
  give_ups : int;
  stalled : int;
  cancelled : int;
  failed : int;
  rejected : int;
  shutdown_replies : int;
  killed : int;
  lost : int;
  protocol_errors : int;
  digest_mismatches : int;
  reconnects : int;
  max_retry_hint_ms : int;
  latency : Latency.summary;
}

let accounted r =
  r.ok + r.stalled + r.cancelled + r.failed + r.rejected + r.shutdown_replies
  + r.give_ups + r.killed + r.lost

(* ------------------------------------------------------------------ *)
(* Per-client state *)

type pending_entry = {
  first_sent : float;
  req : Protocol.request;
  attempt : int;  (* sends so far for this request *)
}

type client = {
  id : int;
  cfg : config;
  mutex : Mutex.t;
  pending : (int, pending_entry) Hashtbl.t;
  mutable retry_q : (float * Protocol.request * int) list;  (* due, req, attempt *)
  lat : Latency.t;
  mutable c_ok : int;
  mutable c_shed : int;
  mutable c_retries : int;
  mutable c_give_ups : int;
  mutable c_stalled : int;
  mutable c_cancelled : int;
  mutable c_failed : int;
  mutable c_rejected : int;
  mutable c_shutdown : int;
  mutable c_killed : int;
  mutable c_lost : int;
  mutable c_proto : int;
  mutable c_mismatch : int;
  mutable c_reconnects : int;
  mutable c_sent : int;
  mutable c_max_retry_hint_ms : int;
      (* largest retry_after_ms any shed carried *)
  rng_r : Rng.t;  (* reader-side jitter stream *)
  digests : Mutex.t * (string * string * int, int) Hashtbl.t;  (* shared *)
}

let now = Timing.now

(* ------------------------------------------------------------------ *)
(* Reply handling (reader threads) *)

let backoff_ms cfg rng attempt =
  let base = cfg.backoff_base_ms * (1 lsl min attempt 10) in
  let capped = min cfg.backoff_cap_ms base in
  let jitter = 0.5 +. Rng.float rng 1.0 in
  max 1 (int_of_float (float_of_int capped *. jitter))

let check_digest cl (req : Protocol.request) digest =
  let dmutex, table = cl.digests in
  let key =
    (req.bench, Option.value req.input ~default:"", req.scale)
  in
  Mutex.lock dmutex;
  (match Hashtbl.find_opt table key with
  | None -> Hashtbl.replace table key digest
  | Some d -> if d <> digest then cl.c_mismatch <- cl.c_mismatch + 1);
  Mutex.unlock dmutex

let handle_reply cl reply =
  Mutex.lock cl.mutex;
  let id = Protocol.reply_id reply in
  (match Hashtbl.find_opt cl.pending id with
  | None -> ()  (* reply for a request we gave up on / killed: ignore *)
  | Some entry -> (
    Hashtbl.remove cl.pending id;
    match reply with
    | Protocol.Ok_reply { digest; _ } ->
      cl.c_ok <- cl.c_ok + 1;
      Latency.add cl.lat ((now () -. entry.first_sent) *. 1e3);
      check_digest cl entry.req digest
    | Protocol.Err_reply { kind = Protocol.Overloaded; retry_after_ms; _ } ->
      cl.c_shed <- cl.c_shed + 1;
      (match retry_after_ms with
       | Some ms when ms > cl.c_max_retry_hint_ms ->
         cl.c_max_retry_hint_ms <- ms
       | _ -> ());
      if entry.attempt > cl.cfg.max_retries then
        cl.c_give_ups <- cl.c_give_ups + 1
      else begin
        let wait_ms =
          match retry_after_ms with
          | Some ms when ms > 0 -> min ms cl.cfg.backoff_cap_ms
          | _ -> backoff_ms cl.cfg cl.rng_r (entry.attempt - 1)
        in
        let due = now () +. (float_of_int wait_ms *. 1e-3) in
        cl.retry_q <- (due, entry.req, entry.attempt) :: cl.retry_q
      end
    | Protocol.Err_reply { kind = Protocol.Stalled; _ } ->
      cl.c_stalled <- cl.c_stalled + 1
    | Protocol.Err_reply { kind = Protocol.Cancelled; _ } ->
      cl.c_cancelled <- cl.c_cancelled + 1
    | Protocol.Err_reply { kind = Protocol.Failed; _ } ->
      cl.c_failed <- cl.c_failed + 1
    | Protocol.Err_reply { kind = Protocol.Shutting_down; _ } ->
      cl.c_shutdown <- cl.c_shutdown + 1
    | Protocol.Err_reply { kind = Protocol.Malformed_request; _ }
    | Protocol.Err_reply { kind = Protocol.Unknown_bench; _ } ->
      cl.c_rejected <- cl.c_rejected + 1));
  Mutex.unlock cl.mutex

let reader_loop cl fd =
  let r = Protocol.reader fd in
  try
    let rec go () =
      match Protocol.read_frame r with
      | None -> ()
      | Some line ->
        (match Protocol.parse_reply line with
        | Ok reply -> handle_reply cl reply
        | Error _ ->
          Mutex.lock cl.mutex;
          cl.c_proto <- cl.c_proto + 1;
          Mutex.unlock cl.mutex);
        go ()
    in
    go ()
  with Protocol.Malformed _ | Unix.Unix_error _ | Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Writer (client main thread) *)

let connect_with_retry path =
  let deadline = now () +. 5.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if now () > deadline then None
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let cycle lst i = List.nth lst (i mod List.length lst)

exception Disconnected

let client_loop cl =
  let cfg = cl.cfg in
  let rng = Rng.create (Rng.hash64 ((cfg.seed * 8191) + cl.id)) in
  let readers = ref [] in
  let fd = ref None in
  let connect () =
    match connect_with_retry cfg.socket_path with
    | None -> raise Disconnected
    | Some f ->
      fd := Some f;
      let th = Thread.create (fun () -> reader_loop cl f) () in
      readers := th :: !readers
  in
  let kill_conn () =
    match !fd with
    | None -> ()
    | Some f ->
      (try Unix.shutdown f Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close f with Unix.Unix_error _ -> ());
      fd := None;
      Mutex.lock cl.mutex;
      let n = Hashtbl.length cl.pending in
      cl.c_killed <- cl.c_killed + n;
      Hashtbl.reset cl.pending;
      cl.c_reconnects <- cl.c_reconnects + 1;
      Mutex.unlock cl.mutex
  in
  let send_frame req ~first ~attempt =
    let f = match !fd with Some f -> f | None -> raise Disconnected in
    Mutex.lock cl.mutex;
    let first_sent =
      if first then now ()
      else
        match Hashtbl.find_opt cl.pending req.Protocol.id with
        | Some e -> e.first_sent
        | None -> now ()
    in
    Hashtbl.replace cl.pending req.Protocol.id { first_sent; req; attempt };
    if first then cl.c_sent <- cl.c_sent + 1
    else cl.c_retries <- cl.c_retries + 1;
    Mutex.unlock cl.mutex;
    try Protocol.write_frame f (Protocol.request_line req)
    with Unix.Unix_error _ | Sys_error _ ->
      (* Server went away mid-write: the pending entry will be counted lost
         unless the reader already got a reply. *)
      ()
  in
  connect ();
  let burst = if cl.id = 0 then cfg.burst else 0 in
  let total = cfg.requests_per_client + burst in
  let mk_request seq =
    let bench = if seq < burst then "spin" else cycle cfg.benches seq in
    Protocol.request
      ?deadline_s:
        (Option.map (fun ms -> float_of_int ms *. 1e-3) cfg.deadline_ms)
      ~mode:cfg.mode ~scale:cfg.scale
      ~spin_ms:(if bench = "spin" then cfg.spin_ms else 0)
      ~id:((cl.id * 1_000_000) + seq)
      ~bench ()
  in
  let seq = ref 0 in
  let next_arrival = ref (now ()) in
  let last_send = ref (now ()) in
  let finished = ref false in
  while not !finished do
    let nowt = now () in
    (* Due retry first: it has already waited its backoff. *)
    let due_retry =
      Mutex.lock cl.mutex;
      let due, rest =
        List.partition (fun (d, _, _) -> d <= nowt) cl.retry_q
      in
      match due with
      | [] ->
        Mutex.unlock cl.mutex;
        None
      | (_, req, attempt) :: more ->
        cl.retry_q <- more @ rest;
        Mutex.unlock cl.mutex;
        Some (req, attempt)
    in
    match due_retry with
    | Some (req, attempt) ->
      if !fd = None then connect ();
      send_frame req ~first:false ~attempt:(attempt + 1);
      last_send := now ()
    | None ->
      if !seq < total && nowt >= !next_arrival then begin
        if !fd = None then connect ();
        let req = mk_request !seq in
        send_frame req ~first:true ~attempt:1;
        last_send := now ();
        let in_burst = !seq < burst in
        seq := !seq + 1;
        next_arrival :=
          (if in_burst then nowt
           else
             nowt
             +. (float_of_int (Rng.exponential_int rng ~mean:cfg.mean_gap_ms)
                 *. 1e-3));
        if
          cfg.kill_every > 0
          && !seq mod cfg.kill_every = 0
          && !seq < total  (* never kill after the last send: those replies
                              must drain normally *)
        then kill_conn ()
      end
      else begin
        let next_retry_due =
          Mutex.lock cl.mutex;
          let d =
            List.fold_left
              (fun acc (d, _, _) -> min acc d)
              infinity cl.retry_q
          in
          Mutex.unlock cl.mutex;
          d
        in
        let next_evt =
          min next_retry_due
            (if !seq < total then !next_arrival else infinity)
        in
        if next_evt < infinity then
          Unix.sleepf (min 0.05 (max 0.001 (next_evt -. nowt)))
        else begin
          (* Drain: everything sent, waiting for stragglers. *)
          Mutex.lock cl.mutex;
          let outstanding = Hashtbl.length cl.pending in
          Mutex.unlock cl.mutex;
          if outstanding = 0 then finished := true
          else if nowt -. !last_send > cfg.wait_cap_s then begin
            Mutex.lock cl.mutex;
            cl.c_lost <- cl.c_lost + Hashtbl.length cl.pending;
            Hashtbl.reset cl.pending;
            Mutex.unlock cl.mutex;
            finished := true
          end
          else Unix.sleepf 0.005
        end
      end
  done;
  (match !fd with
  | Some f ->
    (try Unix.shutdown f Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close f with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter Thread.join !readers

(* ------------------------------------------------------------------ *)
(* Aggregation and entry point *)

let result_to_json cfg r =
  let open Bench_json in
  Obj
    [
      ("schema_version", Int schema_version);
      ("kind", Str "serve");
      ("role", Str "loadgen");
      ( "meta",
        Obj
          [
            ("socket", Str cfg.socket_path);
            ("clients", Int cfg.clients);
            ("requests_per_client", Int cfg.requests_per_client);
            ("seed", Int cfg.seed);
            ("mean_gap_ms", Int cfg.mean_gap_ms);
            ("benches", List (List.map (fun b -> Str b) cfg.benches));
            ("mode", Str cfg.mode);
            ("scale", Int cfg.scale);
            ( "deadline_ms",
              match cfg.deadline_ms with Some d -> Int d | None -> Null );
            ("spin_ms", Int cfg.spin_ms);
            ("burst", Int cfg.burst);
            ("kill_every", Int cfg.kill_every);
            ("max_retries", Int cfg.max_retries);
          ] );
      ( "counters",
        Obj
          [
            ("sent", Int r.sent);
            ("ok", Int r.ok);
            ("shed_replies", Int r.shed_replies);
            ("retries", Int r.retries);
            ("give_ups", Int r.give_ups);
            ("stalled", Int r.stalled);
            ("cancelled", Int r.cancelled);
            ("failed", Int r.failed);
            ("rejected", Int r.rejected);
            ("shutdown_replies", Int r.shutdown_replies);
            ("killed", Int r.killed);
            ("lost", Int r.lost);
            ("protocol_errors", Int r.protocol_errors);
            ("digest_mismatches", Int r.digest_mismatches);
            ("reconnects", Int r.reconnects);
            ("max_retry_hint_ms", Int r.max_retry_hint_ms);
            ("accounted", Int (accounted r));
          ] );
      ("latency", Latency.summary_to_json r.latency);
    ]

let summary_lines r =
  let l = r.latency in
  [
    Printf.sprintf
      "sent=%d ok=%d shed=%d retries=%d give_ups=%d stalled=%d cancelled=%d \
       failed=%d rejected=%d shutdown=%d killed=%d lost=%d proto_err=%d \
       digest_mismatch=%d reconnects=%d max_retry_hint_ms=%d"
      r.sent r.ok r.shed_replies r.retries r.give_ups r.stalled r.cancelled
      r.failed r.rejected r.shutdown_replies r.killed r.lost r.protocol_errors
      r.digest_mismatches r.reconnects r.max_retry_hint_ms;
    Printf.sprintf
      "latency (ok, ms): n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f"
      l.Latency.count l.Latency.mean_ms l.Latency.p50_ms l.Latency.p95_ms
      l.Latency.p99_ms l.Latency.max_ms;
  ]

let run cfg =
  (* Chaos kills make writes to dead sockets routine: EPIPE, not SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if cfg.clients < 1 then Error "clients must be >= 1"
  else if cfg.benches = [] then Error "at least one bench required"
  else begin
    let digests = (Mutex.create (), Hashtbl.create 16) in
    let clients =
      List.init cfg.clients (fun id ->
          {
            id;
            cfg;
            mutex = Mutex.create ();
            pending = Hashtbl.create 32;
            retry_q = [];
            lat = Latency.create ();
            c_ok = 0;
            c_shed = 0;
            c_retries = 0;
            c_give_ups = 0;
            c_stalled = 0;
            c_cancelled = 0;
            c_failed = 0;
            c_rejected = 0;
            c_shutdown = 0;
            c_killed = 0;
            c_lost = 0;
            c_proto = 0;
            c_mismatch = 0;
            c_reconnects = 0;
            c_sent = 0;
            c_max_retry_hint_ms = 0;
            rng_r = Rng.create (Rng.hash64 ((cfg.seed * 131) + id + 7));
            digests;
          })
    in
    let failures = Atomic.make 0 in
    let threads =
      List.map
        (fun cl ->
          Thread.create
            (fun () ->
              try client_loop cl
              with _ -> Atomic.incr failures)
            ())
        clients
    in
    List.iter Thread.join threads;
    if Atomic.get failures > 0 then
      Error
        (Printf.sprintf "%d client(s) could not reach the server at %s"
           (Atomic.get failures) cfg.socket_path)
    else begin
      let lat =
        List.fold_left
          (fun acc cl -> Latency.merge acc cl.lat)
          (Latency.create ()) clients
      in
      let sum f = List.fold_left (fun a cl -> a + f cl) 0 clients in
      let r =
        {
          sent = sum (fun c -> c.c_sent);
          ok = sum (fun c -> c.c_ok);
          shed_replies = sum (fun c -> c.c_shed);
          retries = sum (fun c -> c.c_retries);
          give_ups = sum (fun c -> c.c_give_ups);
          stalled = sum (fun c -> c.c_stalled);
          cancelled = sum (fun c -> c.c_cancelled);
          failed = sum (fun c -> c.c_failed);
          rejected = sum (fun c -> c.c_rejected);
          shutdown_replies = sum (fun c -> c.c_shutdown);
          killed = sum (fun c -> c.c_killed);
          lost = sum (fun c -> c.c_lost);
          protocol_errors = sum (fun c -> c.c_proto);
          digest_mismatches = sum (fun c -> c.c_mismatch);
          reconnects = sum (fun c -> c.c_reconnects);
          max_retry_hint_ms =
            List.fold_left
              (fun a cl -> max a cl.c_max_retry_hint_ms)
              0 clients;
          latency = Latency.summarize lat;
        }
      in
      (match cfg.json_path with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Bench_json.to_string (result_to_json cfg r));
        output_char oc '\n';
        close_out oc);
      Ok r
    end
  end
