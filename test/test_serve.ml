(* Tests for the rpb serve stack: wire protocol, the request server's error
   taxonomy and admission control, cancellation on disconnect, graceful
   drain, and the seeded fault-injection soak. *)

open Rpb_serve
module Pool = Rpb_pool.Pool
open Rpb_benchmarks
module J = Bench_json

(* ---------- helpers ---------- *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Printf.sprintf "%s/rpb-serve-%d-%d.sock"
    (Filename.get_temp_dir_name ())
    (Unix.getpid ()) !sock_counter

let with_server ?(threads = 2) ?(max_queue = 16) ?(preload = []) ?instances
    ?json_path f =
  let cfg =
    {
      (Serve.default_config ~socket_path:(fresh_sock ())) with
      threads;
      max_queue;
      preload;
      json_path;
      drain_grace_s = 5.0;
      quiet = true;
    }
  in
  match Serve.start ?instances cfg with
  | Error e -> Alcotest.fail ("server start: " ^ e)
  | Ok t -> Fun.protect ~finally:(fun () -> Serve.stop t) (fun () -> f t)

let connect t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Serve.socket_path t));
  (fd, Protocol.reader fd)

let recv r =
  match Protocol.read_frame r with
  | None -> Alcotest.fail "unexpected EOF from server"
  | Some line -> (
    match Protocol.parse_reply line with
    | Ok reply -> reply
    | Error e -> Alcotest.fail ("bad reply: " ^ e))

let rpc (fd, r) req =
  Protocol.write_frame fd (Protocol.request_line req);
  recv r

let close_conn (fd, _) = try Unix.close fd with Unix.Unix_error _ -> ()

let err_kind = function
  | Protocol.Err_reply { kind; _ } -> Some kind
  | Protocol.Ok_reply _ -> None

(* Sequential-oracle digest for a benchmark's default input, computed on a
   private pool: what every ok reply for the same instance must hash to. *)
let oracle_digest bench scale =
  let entry = Option.get (Registry.find bench) in
  let input = List.hd entry.Common.inputs in
  let pool = Pool.create ~num_workers:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.run pool (fun () ->
          let p = entry.Common.prepare pool ~input ~scale in
          p.Common.run_seq ();
          Protocol.digest_hash (p.Common.snapshot ())))

(* ---------- protocol ---------- *)

let test_request_roundtrip () =
  let req =
    Protocol.request ~input:"random" ~mode:"checked" ~scale:2 ~deadline_s:0.25
      ~spin_ms:7 ~id:42 ~bench:"hist" ()
  in
  match Protocol.parse_request (Protocol.request_line req) with
  | Error e -> Alcotest.fail e
  | Ok got ->
    Alcotest.(check int) "id" 42 got.Protocol.id;
    Alcotest.(check string) "bench" "hist" got.Protocol.bench;
    Alcotest.(check (option string)) "input" (Some "random") got.Protocol.input;
    Alcotest.(check string) "mode" "checked" got.Protocol.mode;
    Alcotest.(check int) "scale" 2 got.Protocol.scale;
    Alcotest.(check bool) "deadline" true
      (match got.Protocol.deadline_s with
      | Some d -> Float.abs (d -. 0.25) < 1e-9
      | None -> false);
    Alcotest.(check int) "spin_ms" 7 got.Protocol.spin_ms

let test_request_defaults () =
  (* [policy] is an unknown key like any other: ignored. *)
  match Protocol.parse_request "id=3 bench=sort extra=ignored policy=lazy" with
  | Error e -> Alcotest.fail e
  | Ok got ->
    Alcotest.(check string) "mode default" "unsafe" got.Protocol.mode;
    Alcotest.(check int) "scale default" 0 got.Protocol.scale;
    Alcotest.(check (option string)) "no input" None got.Protocol.input

let test_request_rejects () =
  let bad l =
    match Protocol.parse_request l with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "missing id" true (bad "bench=hist");
  Alcotest.(check bool) "missing bench" true (bad "id=1");
  Alcotest.(check bool) "bad int" true (bad "id=zz bench=hist");
  Alcotest.(check bool) "negative deadline" true
    (bad "id=1 bench=hist deadline_ms=-5")

let test_reply_roundtrip () =
  let ok =
    Protocol.Ok_reply { id = 9; digest = 123456789; queue_ms = 1.5; exec_ms = 2.25 }
  in
  (match Protocol.parse_reply (Protocol.reply_line ok) with
  | Ok (Protocol.Ok_reply got) ->
    Alcotest.(check int) "id" 9 got.id;
    Alcotest.(check int) "digest" 123456789 got.digest
  | _ -> Alcotest.fail "ok reply did not round-trip");
  let e =
    Protocol.Err_reply
      {
        id = 4;
        kind = Protocol.Overloaded;
        retry_after_ms = Some 30;
        msg = "queue full";
      }
  in
  match Protocol.parse_reply (Protocol.reply_line e) with
  | Ok (Protocol.Err_reply got) ->
    Alcotest.(check bool) "kind" true (got.kind = Protocol.Overloaded);
    Alcotest.(check (option int)) "retry hint" (Some 30) got.retry_after_ms
  | _ -> Alcotest.fail "err reply did not round-trip"

let test_error_kind_names_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Protocol.error_kind_name k)
        true
        (Protocol.error_kind_of_name (Protocol.error_kind_name k) = Some k))
    [
      Protocol.Overloaded; Protocol.Stalled; Protocol.Cancelled;
      Protocol.Malformed_request; Protocol.Unknown_bench;
      Protocol.Shutting_down; Protocol.Failed;
    ]

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let test_framing_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> close_quiet a; close_quiet b)
    (fun () ->
      let r = Protocol.reader b in
      Protocol.write_frame a "first frame";
      Protocol.write_frame a "";
      Protocol.write_frame a "id=1 bench=hist";
      Alcotest.(check (option string)) "frame 1" (Some "first frame")
        (Protocol.read_frame r);
      Alcotest.(check (option string)) "empty frame" (Some "")
        (Protocol.read_frame r);
      Alcotest.(check (option string)) "frame 3" (Some "id=1 bench=hist")
        (Protocol.read_frame r);
      Unix.close a;
      (* re-close below is harmless *)
      Alcotest.(check (option string)) "EOF" None (Protocol.read_frame r))

let test_framing_malformed () =
  let check_bad name bytes =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> close_quiet a; close_quiet b)
      (fun () ->
        let n = Unix.write_substring a bytes 0 (String.length bytes) in
        Alcotest.(check int) "wrote" (String.length bytes) n;
        Unix.close a;
        let r = Protocol.reader b in
        match Protocol.read_frame r with
        | exception Protocol.Malformed _ -> ()
        | Some _ | None -> Alcotest.fail (name ^ ": expected Malformed"))
  in
  check_bad "non-digit prefix" "xyz\npayload";
  check_bad "oversized length" "99999999\n";
  check_bad "truncated payload" "10\nabc"

let test_digest_hash () =
  let a = [| 1; 2; 3 |] in
  Alcotest.(check int) "deterministic" (Protocol.digest_hash a)
    (Protocol.digest_hash [| 1; 2; 3 |]);
  Alcotest.(check bool) "order-sensitive" true
    (Protocol.digest_hash [| 1; 2; 3 |] <> Protocol.digest_hash [| 3; 2; 1 |]);
  Alcotest.(check bool) "length-sensitive" true
    (Protocol.digest_hash [| 0 |] <> Protocol.digest_hash [| 0; 0 |]);
  Alcotest.(check bool) "non-negative" true (Protocol.digest_hash a >= 0)

(* ---------- serving ---------- *)

let test_serve_basic_digest () =
  let oracle = oracle_digest "hist" 0 in
  with_server (fun t ->
      let conn = connect t in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      (match rpc conn (Protocol.request ~id:1 ~bench:"hist" ()) with
      | Protocol.Ok_reply { id; digest; _ } ->
        Alcotest.(check int) "id echoed" 1 id;
        Alcotest.(check int) "digest matches sequential oracle" oracle digest
      | Protocol.Err_reply { kind; msg; _ } ->
        Alcotest.fail
          (Printf.sprintf "expected ok, got %s: %s"
             (Protocol.error_kind_name kind)
             msg));
      (* Cached prepared instance: same digest again. *)
      match rpc conn (Protocol.request ~id:2 ~bench:"hist" ()) with
      | Protocol.Ok_reply { digest; _ } ->
        Alcotest.(check int) "repeat digest" oracle digest
      | Protocol.Err_reply _ -> Alcotest.fail "repeat request failed")

let test_serve_error_taxonomy () =
  with_server (fun t ->
      let conn = connect t in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let kind_of req = err_kind (rpc conn req) in
      Alcotest.(check bool) "unknown bench" true
        (kind_of (Protocol.request ~id:1 ~bench:"nope" ())
        = Some Protocol.Unknown_bench);
      Alcotest.(check bool) "bad mode" true
        (kind_of (Protocol.request ~mode:"yolo" ~id:3 ~bench:"hist" ())
        = Some Protocol.Malformed_request);
      Alcotest.(check bool) "bad input" true
        (kind_of (Protocol.request ~input:"nope" ~id:4 ~bench:"hist" ())
        = Some Protocol.Malformed_request);
      Alcotest.(check bool) "scale cap" true
        (kind_of (Protocol.request ~scale:99 ~id:5 ~bench:"hist" ())
        = Some Protocol.Malformed_request);
      (* Unparseable payload: structured malformed reply, connection lives. *)
      let fd, r = conn in
      Protocol.write_frame fd "complete garbage";
      (match recv r with
      | Protocol.Err_reply { id; kind; _ } ->
        Alcotest.(check int) "id -1 for unparseable" (-1) id;
        Alcotest.(check bool) "malformed" true (kind = Protocol.Malformed_request)
      | Protocol.Ok_reply _ -> Alcotest.fail "garbage accepted");
      (* ...and the server still serves. *)
      match rpc conn (Protocol.request ~id:6 ~bench:"hist" ()) with
      | Protocol.Ok_reply _ -> ()
      | Protocol.Err_reply _ -> Alcotest.fail "server wedged after rejects")

let test_serve_deadline_stall () =
  with_server (fun t ->
      let conn = connect t in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      (match
         rpc conn
           (Protocol.request ~deadline_s:0.05 ~spin_ms:2000 ~id:1 ~bench:"spin" ())
       with
      | Protocol.Err_reply { kind; _ } ->
        Alcotest.(check bool) "stalled" true (kind = Protocol.Stalled)
      | Protocol.Ok_reply _ -> Alcotest.fail "expected stalled reply");
      (* The stall must not poison the pool. *)
      match rpc conn (Protocol.request ~id:2 ~bench:"hist" ()) with
      | Protocol.Ok_reply _ -> ()
      | Protocol.Err_reply { kind; msg; _ } ->
        Alcotest.fail
          (Printf.sprintf "pool poisoned after stall: %s %s"
             (Protocol.error_kind_name kind)
             msg))

let test_serve_overload_shed () =
  with_server ~max_queue:2 (fun t ->
      let cfg =
        {
          (Loadgen.default_config ~socket_path:(Serve.socket_path t)) with
          clients = 2;
          requests_per_client = 4;
          seed = 11;
          benches = [ "spin" ];
          spin_ms = 40;
          mean_gap_ms = 1;
          burst = 10;
          max_retries = 2;
          backoff_base_ms = 10;
          quiet = true;
        }
      in
      match Loadgen.run cfg with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check bool) "sheds occurred" true (r.Loadgen.shed_replies > 0);
        Alcotest.(check bool) "some requests succeeded" true (r.Loadgen.ok > 0);
        Alcotest.(check int) "nothing lost" 0 r.Loadgen.lost;
        Alcotest.(check int) "no protocol errors" 0 r.Loadgen.protocol_errors;
        Alcotest.(check int) "every request accounted" r.Loadgen.sent
          (Loadgen.accounted r);
        let s = Serve.stats t in
        Alcotest.(check bool) "server counted sheds" true (s.Serve.shed > 0);
        Alcotest.(check bool) "occupancy bounded" true
          (s.Serve.max_occupancy <= 2))

let test_serve_disconnect_cancels () =
  with_server (fun t ->
      let conn = connect t in
      let fd, _ = conn in
      Protocol.write_frame fd
        (Protocol.request_line
           (Protocol.request ~spin_ms:5000 ~id:1 ~bench:"spin" ()));
      (* Let the request reach the executor, then vanish. *)
      Unix.sleepf 0.2;
      close_conn conn;
      (* The cancel must free the executor long before the 5 s of spin. *)
      let t0 = Unix.gettimeofday () in
      let conn2 = connect t in
      Fun.protect ~finally:(fun () -> close_conn conn2) @@ fun () ->
      (match rpc conn2 (Protocol.request ~id:2 ~bench:"hist" ()) with
      | Protocol.Ok_reply _ -> ()
      | Protocol.Err_reply _ -> Alcotest.fail "request after disconnect failed");
      Alcotest.(check bool) "executor freed promptly" true
        (Unix.gettimeofday () -. t0 < 4.0);
      let s = Serve.stats t in
      Alcotest.(check bool) "cancellation recorded" true
        (s.Serve.cancelled >= 1);
      Alcotest.(check bool) "disconnect recorded" true
        (s.Serve.disconnects >= 1))

let test_serve_drain_replies_to_queued () =
  with_server (fun t ->
      let conn = connect t in
      let fd, r = conn in
      let n = 5 in
      for i = 1 to n do
        Protocol.write_frame fd
          (Protocol.request_line
             (Protocol.request ~spin_ms:100 ~id:i ~bench:"spin" ()))
      done;
      Unix.sleepf 0.05;
      (* Drain while most of the pipeline is still queued. *)
      Serve.stop t;
      let seen = Hashtbl.create 8 in
      (try
         let rec go () =
           match Protocol.read_frame r with
           | None -> ()
           | Some line ->
             (match Protocol.parse_reply line with
             | Ok reply ->
               let id = Protocol.reply_id reply in
               Alcotest.(check bool)
                 (Printf.sprintf "single reply for id %d" id)
                 false (Hashtbl.mem seen id);
               Hashtbl.replace seen id reply
             | Error e -> Alcotest.fail ("bad drain reply: " ^ e));
             go ()
         in
         go ()
       with Protocol.Malformed _ | Unix.Unix_error _ -> ());
      close_conn conn;
      Alcotest.(check int) "every queued request got a reply" n
        (Hashtbl.length seen);
      Hashtbl.iter
        (fun id reply ->
          match reply with
          | Protocol.Ok_reply _ -> ()
          | Protocol.Err_reply { kind; _ } ->
            Alcotest.(check bool)
              (Printf.sprintf "id %d: ok, shutdown or cancelled" id)
              true
              (kind = Protocol.Shutting_down || kind = Protocol.Cancelled))
        seen)

(* ---------- the stats verb and the live metrics plane ---------- *)

let stats_snapshot conn =
  let fd, r = conn in
  Protocol.write_frame fd (Protocol.request_line (Protocol.stats_request ~id:0));
  match Protocol.read_frame r with
  | None -> Alcotest.fail "EOF on stats request"
  | Some payload -> (
    match Top.parse_snapshot (Bench_json.of_string payload) with
    | Ok s -> s
    | Error e -> Alcotest.fail ("stats reply: " ^ e))

let test_serve_stats_verb () =
  with_server (fun t ->
      let conn = connect t in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let get name (s : Top.snap) =
        Option.value (List.assoc_opt name s.Top.counters) ~default:0
      in
      let hist_count name (s : Top.snap) =
        match List.assoc_opt name s.Top.hists with
        | Some h -> h.Top.count
        | None -> 0
      in
      (* Counters are process-global (several servers run in this binary),
         so the reconciliation is on deltas between two snapshots taken
         over the same connection. *)
      let s0 = stats_snapshot conn in
      let n = 5 in
      for i = 1 to n do
        match rpc conn (Protocol.request ~id:i ~bench:"hist" ()) with
        | Protocol.Ok_reply _ -> ()
        | Protocol.Err_reply { kind; msg; _ } ->
          Alcotest.fail
            (Printf.sprintf "request %d: %s %s" i
               (Protocol.error_kind_name kind)
               msg)
      done;
      let s1 = stats_snapshot conn in
      Alcotest.(check int) "serve.ok advanced by the replies" n
        (get "serve.ok" s1 - get "serve.ok" s0);
      Alcotest.(check int) "serve.accepted advanced too" n
        (get "serve.accepted" s1 - get "serve.accepted" s0);
      Alcotest.(check int) "exec histogram sampled each ok" n
        (hist_count "serve.exec_ms" s1 - hist_count "serve.exec_ms" s0);
      Alcotest.(check bool) "stats requests counted" true
        (get "serve.stats_requests" s1 > get "serve.stats_requests" s0);
      (* The full invariant set rpb top --check runs in CI. *)
      (match Top.check_invariants ~prev:(Some s0) s1 with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("invariant: " ^ msg));
      (* Unknown verbs reject without killing the connection. *)
      (match
         rpc conn (Protocol.request ~verb:"selfdestruct" ~id:99 ~bench:"-" ())
       with
      | Protocol.Err_reply { kind = Protocol.Malformed_request; _ } -> ()
      | _ -> Alcotest.fail "unknown verb should reject as malformed");
      match rpc conn (Protocol.request ~id:100 ~bench:"hist" ()) with
      | Protocol.Ok_reply _ -> ()
      | Protocol.Err_reply _ ->
        Alcotest.fail "connection should survive an unknown verb")

(* A hand-built instance whose parallel output differs from its sequential
   one while [verify] accepts both: only the per-request snapshot check can
   catch it.  The reply must be [failed], the failed counters must move, and
   the instance must be evicted, so the next request for the same key
   re-prepares the real benchmark and matches the sequential oracle. *)
let test_serve_snapshot_mismatch () =
  let entry = Option.get (Registry.find "hist") in
  let key = ("hist", List.hd entry.Common.inputs, 0) in
  let last = ref [||] in
  let wrong =
    {
      Common.size = "hand-built";
      run_seq = (fun () -> last := [| 1; 2; 3 |]);
      run_par = (fun _ -> last := [| 1; 2; 4 |]);
      verify = (fun () -> true);
      snapshot = (fun () -> Array.copy !last);
    }
  in
  let oracle = oracle_digest "hist" 0 in
  with_server ~instances:[ (key, wrong) ] (fun t ->
      let conn = connect t in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      let get name (s : Top.snap) =
        Option.value (List.assoc_opt name s.Top.counters) ~default:0
      in
      let hist_count name (s : Top.snap) =
        match List.assoc_opt name s.Top.hists with
        | Some h -> h.Top.count
        | None -> 0
      in
      let s0 = stats_snapshot conn in
      let failed0 = (Serve.stats t).Serve.failed in
      (match rpc conn (Protocol.request ~id:1 ~bench:"hist" ()) with
      | Protocol.Err_reply { kind = Protocol.Failed; id; _ } ->
        Alcotest.(check int) "id echoed" 1 id
      | Protocol.Err_reply { kind; msg; _ } ->
        Alcotest.fail
          (Printf.sprintf "expected failed, got %s: %s"
             (Protocol.error_kind_name kind)
             msg)
      | Protocol.Ok_reply _ -> Alcotest.fail "mismatched output replied ok");
      let s1 = stats_snapshot conn in
      Alcotest.(check int) "server failed count" (failed0 + 1)
        (Serve.stats t).Serve.failed;
      Alcotest.(check int) "serve.failed counter" 1
        (get "serve.failed" s1 - get "serve.failed" s0);
      Alcotest.(check int) "serve.ok unchanged" 0
        (get "serve.ok" s1 - get "serve.ok" s0);
      Alcotest.(check int) "the mismatch reached the check" 1
        (hist_count "serve.check_ms" s1 - hist_count "serve.check_ms" s0);
      (match Top.check_invariants ~prev:(Some s0) s1 with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("invariant: " ^ msg));
      match rpc conn (Protocol.request ~id:2 ~bench:"hist" ()) with
      | Protocol.Ok_reply { digest; _ } ->
        Alcotest.(check int) "evicted: re-prepared instance matches oracle"
          oracle digest
      | Protocol.Err_reply { msg; _ } ->
        Alcotest.fail ("hand-built instance was not evicted: " ^ msg))

(* An instance whose sequential run fails [verify] is never cached: here it
   is a startup instance, so the server refuses to start. *)
let test_serve_unverified_instance_refused () =
  let bad =
    {
      Common.size = "hand-built";
      run_seq = ignore;
      run_par = ignore;
      verify = (fun () -> false);
      snapshot = (fun () -> [||]);
    }
  in
  let cfg =
    {
      (Serve.default_config ~socket_path:(fresh_sock ())) with
      threads = 1;
      quiet = true;
    }
  in
  match Serve.start ~instances:[ (("hist", "uniform", 0), bad) ] cfg with
  | Ok t ->
    Serve.stop t;
    Alcotest.fail "an instance failing verify was accepted"
  | Error _ -> ()

(* ---------- the health verb and budget-aware admission ---------- *)

let test_serve_health_verb () =
  (* Without --slo the health plane answers an objective-less ok with
     untightened admission. *)
  with_server (fun t ->
      match Top.fetch_health ~socket_path:(Serve.socket_path t) () with
      | Error e -> Alcotest.fail ("health: " ^ e)
      | Ok j ->
        Alcotest.(check string) "status" "ok"
          (J.get_str (J.member "status" j));
        Alcotest.(check int) "no objectives" 0
          (List.length (J.get_list (J.member "objectives" j)));
        let adm = J.member "admission" j in
        Alcotest.(check int) "full cap" 16
          (J.get_int (J.member "effective_max_queue" adm));
        Alcotest.(check int) "unit retry scale" 1
          (J.get_int (J.member "retry_scale" adm)))

let test_serve_health_degrades () =
  (* A deliberately impossible latency objective (p95 < 1 us) with
     sub-second burn windows: every request is budget burn, so the health
     verb must degrade to unhealthy and report quartered admission while
     load keeps arriving. *)
  let slo =
    match Rpb_obs.Slo.parse_spec "latency:serve.exec_ms:p95<0.001" with
    | Stdlib.Ok s -> s
    | Stdlib.Error e -> Alcotest.fail e
  in
  let cfg =
    {
      (Serve.default_config ~socket_path:(fresh_sock ())) with
      threads = 2;
      max_queue = 16;
      drain_grace_s = 5.0;
      quiet = true;
      metrics_interval_s = 0.1;
      slo = Some slo;
      slo_fast_s = 0.5;
      slo_slow_s = 2.0;
    }
  in
  match Serve.start cfg with
  | Error e -> Alcotest.fail ("server start: " ^ e)
  | Ok t ->
    Fun.protect ~finally:(fun () -> Serve.stop t) @@ fun () ->
    let conn = connect t in
    Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
    let deadline = Unix.gettimeofday () +. 20.0 in
    let rec drive i =
      (* keep the burn alive while polling: one request, one health probe *)
      (match rpc conn (Protocol.request ~id:i ~bench:"spin" ~spin_ms:2 ()) with
      | Protocol.Ok_reply _ | Protocol.Err_reply _ -> ());
      match Top.fetch_health ~socket_path:(Serve.socket_path t) () with
      | Error e -> Alcotest.fail ("health: " ^ e)
      | Ok j ->
        if J.get_str (J.member "status" j) = "unhealthy" then j
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "server never degraded to unhealthy"
        else begin
          Unix.sleepf 0.05;
          drive (i + 1)
        end
    in
    let j = drive 1 in
    Alcotest.(check int) "level encoding" 2 (J.get_int (J.member "level" j));
    let adm = J.member "admission" j in
    Alcotest.(check int) "admission quartered under Page" 4
      (J.get_int (J.member "effective_max_queue" adm));
    Alcotest.(check int) "retry hints scaled 4x" 4
      (J.get_int (J.member "retry_scale" adm));
    (match J.get_list (J.member "objectives" j) with
    | [ o ] ->
      Alcotest.(check string) "objective paged" "page"
        (J.get_str (J.member "level" o));
      Alcotest.(check bool) "burns reported positive" true
        (J.get_float (J.member "fast_burn" o) > 0.)
    | os -> Alcotest.failf "expected one objective, got %d" (List.length os));
    (* the slo.* gauges pass the rpb top --check invariants live *)
    (match Top.fetch ~socket_path:(Serve.socket_path t) () with
    | Error e -> Alcotest.fail ("stats: " ^ e)
    | Ok s -> (
      match Top.check_invariants ~prev:None s with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("slo gauge invariant: " ^ msg)))

(* ---------- the seeded overload/fault soak ---------- *)

let test_serve_fault_soak () =
  (* Oracle digests first: Fault injection is process-global. *)
  let benches = [ "hist"; "sort"; "sa" ] in
  let oracles = List.map (fun b -> (b, oracle_digest b 0)) benches in
  with_server ~max_queue:8
    ~preload:(List.map (fun b -> (b, None, 0)) benches)
    (fun t ->
      Pool.Fault.enable
        {
          Pool.Fault.seed = 7;
          task_exn = 0.02;
          steal_delay = 0.05;
          worker_stall = 0.05;
          spawn_fail = 0.1;
          delay_us = 50;
        };
      let soak_result =
        Fun.protect ~finally:Pool.Fault.disable @@ fun () ->
        let cfg =
          {
            (Loadgen.default_config ~socket_path:(Serve.socket_path t)) with
            clients = 4;
            requests_per_client = 15;
            seed = 1234;
            benches = benches @ [ "spin" ];
            spin_ms = 10;
            mean_gap_ms = 2;
            kill_every = 7;
            max_retries = 3;
            backoff_base_ms = 5;
            quiet = true;
          }
        in
        Loadgen.run cfg
      in
      (match soak_result with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check int) "zero lost replies" 0 r.Loadgen.lost;
        Alcotest.(check int) "zero protocol errors" 0
          r.Loadgen.protocol_errors;
        Alcotest.(check int) "zero digest mismatches" 0
          r.Loadgen.digest_mismatches;
        Alcotest.(check int) "every request accounted exactly once"
          r.Loadgen.sent (Loadgen.accounted r);
        Alcotest.(check bool) "successes under fault injection" true
          (r.Loadgen.ok > 0));
      (* Faults off again: the server must still produce oracle digests —
         the pools survived the soak un-poisoned. *)
      let conn = connect t in
      Fun.protect ~finally:(fun () -> close_conn conn) @@ fun () ->
      List.iteri
        (fun i (bench, oracle) ->
          match rpc conn (Protocol.request ~id:(9000 + i) ~bench ()) with
          | Protocol.Ok_reply { digest; _ } ->
            Alcotest.(check int)
              (bench ^ " digest after soak")
              oracle digest
          | Protocol.Err_reply { kind; msg; _ } ->
            Alcotest.fail
              (Printf.sprintf "%s after soak: %s %s" bench
                 (Protocol.error_kind_name kind)
                 msg))
        oracles)

(* ---------- latency ---------- *)

let test_latency_percentiles () =
  let l = Latency.create () in
  for i = 1 to 100 do
    Latency.add l (float_of_int i)
  done;
  let s = Latency.summarize l in
  Alcotest.(check int) "count" 100 s.Latency.count;
  Alcotest.(check (float 1e-9)) "p50" 50. s.Latency.p50_ms;
  Alcotest.(check (float 1e-9)) "p95" 95. s.Latency.p95_ms;
  Alcotest.(check (float 1e-9)) "p99" 99. s.Latency.p99_ms;
  Alcotest.(check (float 1e-9)) "max" 100. s.Latency.max_ms;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Latency.mean_ms;
  let json = Latency.summary_to_json s in
  let back = Latency.summary_of_json json in
  Alcotest.(check int) "json round-trip count" s.Latency.count
    back.Latency.count

let test_latency_empty () =
  let s = Latency.summarize (Latency.create ()) in
  Alcotest.(check int) "count" 0 s.Latency.count;
  Alcotest.(check (float 1e-9)) "p99" 0. s.Latency.p99_ms

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "request defaults" `Quick test_request_defaults;
          Alcotest.test_case "request rejects" `Quick test_request_rejects;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "error kind names" `Quick
            test_error_kind_names_roundtrip;
          Alcotest.test_case "framing round-trip" `Quick test_framing_roundtrip;
          Alcotest.test_case "framing malformed" `Quick test_framing_malformed;
          Alcotest.test_case "digest hash" `Quick test_digest_hash;
        ] );
      ( "latency",
        [
          Alcotest.test_case "percentiles" `Quick test_latency_percentiles;
          Alcotest.test_case "empty summary" `Quick test_latency_empty;
        ] );
      ( "server",
        [
          Alcotest.test_case "digest matches oracle" `Quick
            test_serve_basic_digest;
          Alcotest.test_case "error taxonomy" `Quick test_serve_error_taxonomy;
          Alcotest.test_case "deadline stall" `Quick test_serve_deadline_stall;
          Alcotest.test_case "overload shed" `Quick test_serve_overload_shed;
          Alcotest.test_case "disconnect cancels" `Quick
            test_serve_disconnect_cancels;
          Alcotest.test_case "drain replies to queued" `Quick
            test_serve_drain_replies_to_queued;
          Alcotest.test_case "snapshot mismatch fails and evicts" `Quick
            test_serve_snapshot_mismatch;
          Alcotest.test_case "unverified instance refused" `Quick
            test_serve_unverified_instance_refused;
          Alcotest.test_case "stats verb reconciles" `Quick
            test_serve_stats_verb;
          Alcotest.test_case "health verb without slo" `Quick
            test_serve_health_verb;
          Alcotest.test_case "health degrades and tightens admission" `Quick
            test_serve_health_degrades;
        ] );
      ( "soak",
        [
          Alcotest.test_case "seeded fault soak" `Quick test_serve_fault_soak;
        ] );
    ]
