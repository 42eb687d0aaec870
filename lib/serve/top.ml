(* The rpb top client.  See top.mli; everything here is read-only against
   the server (stats requests bypass admission), so running top against a
   loaded server perturbs nothing but one connection systhread. *)

module J = Rpb_benchmarks.Bench_json
module Metrics = Rpb_obs.Metrics

type hist = { count : int; sum_ns : int; max_ms : float; buckets : int array }

type snap = {
  seq : int;
  ts_s : float;
  uptime_s : float;
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * hist) list;
}

(* ------------------------------------------------------------------ *)
(* Parsing *)

let parse_hist j =
  let buckets = Array.make 64 0 in
  List.iter
    (fun pair ->
      match J.get_list pair with
      | [ b; n ] ->
        let b = J.get_int b in
        if b >= 0 && b < 64 then buckets.(b) <- J.get_int n
      | _ -> raise (J.Parse_error "bad bucket pair"))
    (J.get_list (J.member "buckets" j));
  {
    count = J.get_int (J.member "count" j);
    sum_ns = J.get_int (J.member "sum_ns" j);
    max_ms = J.get_float (J.member "max_ms" j);
    buckets;
  }

let obj_fields j =
  match j with
  | J.Obj fields -> fields
  | _ -> raise (J.Parse_error "expected object")

let parse_snapshot j =
  try
    if J.get_str (J.member "kind" j) <> "metrics" then
      Error "not a kind=metrics document"
    else
      Ok
        {
          seq = J.get_int (J.member "seq" j);
          ts_s = J.get_float (J.member "ts_s" j);
          uptime_s = J.get_float (J.member "uptime_s" j);
          counters =
            List.map
              (fun (k, v) -> (k, J.get_int v))
              (obj_fields (J.member "counters" j));
          gauges =
            List.filter_map
              (fun (k, v) ->
                match v with J.Null -> None | v -> Some (k, J.get_float v))
              (obj_fields (J.member "gauges" j));
          hists =
            List.map
              (fun (k, v) -> (k, parse_hist v))
              (obj_fields (J.member "histograms" j));
        }
  with J.Parse_error msg -> Error ("bad snapshot: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Fetch *)

let round_trip ?(retries = 0) ~socket_path req parse =
  let rec connect attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempt < retries then begin
        (try Unix.sleepf 0.2 with Unix.Unix_error _ -> ());
        connect (attempt + 1)
      end
      else Error (Printf.sprintf "connect %s: %s" socket_path (Unix.error_message e))
  in
  match connect 0 with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Protocol.write_frame fd (Protocol.request_line req);
          let r = Protocol.reader fd in
          match Protocol.read_frame r with
          | None -> Error "server closed the connection before replying"
          | Some payload -> parse (J.of_string payload)
        with
        | Protocol.Malformed msg -> Error ("bad frame: " ^ msg)
        | J.Parse_error msg -> Error ("bad snapshot JSON: " ^ msg)
        | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let fetch ?retries ~socket_path () =
  round_trip ?retries ~socket_path (Protocol.stats_request ~id:0) parse_snapshot

let fetch_health ?retries ~socket_path () =
  round_trip ?retries ~socket_path (Protocol.health_request ~id:0) Result.ok

(* ------------------------------------------------------------------ *)
(* Lookups and deltas *)

let counter_of s name =
  Option.value (List.assoc_opt name s.counters) ~default:0

let gauge_of s name = List.assoc_opt name s.gauges
let hist_of s name = List.assoc_opt name s.hists

(* A server restart resets the whole metrics plane: uptime and seq start
   over, counters drop back toward zero.  A client that keeps its old
   snapshot as the delta baseline would print negative throughput, so
   cross-snapshot consumers treat a restarted predecessor as no
   predecessor at all and re-baseline from the fresh snapshot. *)
let restarted ~prev cur =
  match prev with
  | None -> false
  | Some p -> cur.uptime_s < p.uptime_s || cur.seq < p.seq

(* Per-second rate of a counter between two snapshots; None without a
   (same-incarnation) predecessor or when the clock did not advance.
   Clamped at 0 — a rate is never negative even if a counter glitches. *)
let rate ~prev cur name =
  match prev with
  | None -> None
  | Some p ->
    if restarted ~prev cur then None
    else
      let dt = cur.ts_s -. p.ts_s in
      if dt <= 0. then None
      else
        Some
          (Float.max 0.
             (float_of_int (counter_of cur name - counter_of p name) /. dt))

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pct h q = Metrics.percentile_of_buckets_ms h.buckets q

let fmt_rate = function
  | None -> "   -  "
  | Some r -> Printf.sprintf "%6.1f" r

let render ?prev s =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  Buffer.add_string b "\027[2J\027[H";
  line "rpb top — seq %d, uptime %.1fs" s.seq s.uptime_s;
  line "";
  let ok = counter_of s "serve.ok" in
  line "requests   ok %-8d shed %-6d rejected %-6d stalled %-5d cancelled %-5d failed %-5d"
    ok
    (counter_of s "serve.shed")
    (counter_of s "serve.rejected")
    (counter_of s "serve.stalled")
    (counter_of s "serve.cancelled")
    (counter_of s "serve.failed");
  line "throughput %s ok/s   %s accepted/s   conns %d live, %d total"
    (fmt_rate (rate ~prev s "serve.ok"))
    (fmt_rate (rate ~prev s "serve.accepted"))
    (match gauge_of s "serve.connections_live" with
     | Some v -> int_of_float v
     | None -> 0)
    (counter_of s "serve.connections");
  (match gauge_of s "serve.occupancy" with
  | Some occ ->
    line "queue      occupancy %.0f   ewma service %.2f ms" occ
      (Option.value (gauge_of s "serve.ewma_service_ms") ~default:0.)
  | None -> ());
  line "";
  line "latency (ms)      count      p50      p95      p99      max";
  List.iter
    (fun name ->
      match hist_of s name with
      | None -> ()
      | Some h ->
        line "%-16s %6d %8.2f %8.2f %8.2f %8.2f" name h.count (pct h 50.)
          (pct h 95.) (pct h 99.) h.max_ms)
    [ "serve.queue_ms"; "serve.exec_ms"; "serve.check_ms"; "serve.total_ms" ];
  line "";
  (match gauge_of s "pool.workers" with
  | Some w ->
    line "pool       workers %.0f   deque depth %.0f (max %.0f)   timers %.0f" w
      (Option.value (gauge_of s "pool.deque_depth_total") ~default:0.)
      (Option.value (gauge_of s "pool.deque_depth_max") ~default:0.)
      (Option.value (gauge_of s "pool.timer_pending") ~default:0.);
    (* Pool totals are exported as probes (gauges), so their rates need the
       gauge values, not counters. *)
    let grate name =
      match (prev, gauge_of s name) with
      | Some p, Some cur_v when not (restarted ~prev s) -> (
        match gauge_of p name with
        | Some prev_v when s.ts_s > p.ts_s ->
          Some (Float.max 0. ((cur_v -. prev_v) /. (s.ts_s -. p.ts_s)))
        | _ -> None)
      | _ -> None
    in
    line "           tasks/s %s   steals/s %s   failed steals/s %s"
      (fmt_rate (grate "pool.tasks"))
      (fmt_rate (grate "pool.steals_ok"))
      (fmt_rate (grate "pool.steals_failed"))
  | None -> ());
  (match (hist_of s "gc.minor_pause_ns", hist_of s "gc.major_slice_ns") with
  | None, None -> ()
  | minor, major ->
    let part label = function
      | Some h when h.count > 0 ->
        Printf.sprintf "%s p99 %.3f ms (n=%d)" label (pct h 99.) h.count
      | _ -> Printf.sprintf "%s -" label
    in
    line "gc         %s   %s   minors %.0f" (part "minor" minor)
      (part "major-slice" major)
      (Option.value (gauge_of s "gc.minor_collections") ~default:0.));
  (* SLO panel: present only when the server runs with --slo.  Objective
     names are recovered from the slo.<name>.level gauge family. *)
  let slo_objectives =
    List.filter_map
      (fun (k, _) ->
        if String.length k > 10
           && String.sub k 0 4 = "slo."
           && String.sub k (String.length k - 6) 6 = ".level"
        then Some (String.sub k 4 (String.length k - 10))
        else None)
      s.gauges
  in
  (match gauge_of s "slo.level" with
  | Some lvl when slo_objectives <> [] ->
    line "";
    line "slo        overall %s"
      (Rpb_obs.Slo.status_name
         (Rpb_obs.Slo.level_of_index (int_of_float lvl)));
    line "           %-28s %-6s %10s %10s %8s" "objective" "level" "fast burn"
      "slow burn" "budget";
    List.iter
      (fun name ->
        let g suffix =
          Option.value (gauge_of s ("slo." ^ name ^ suffix)) ~default:0.
        in
        line "           %-28s %-6s %10.2f %10.2f %7.0f%%" name
          (Rpb_obs.Slo.level_name
             (Rpb_obs.Slo.level_of_index (int_of_float (g ".level"))))
          (g ".fast_burn") (g ".slow_burn")
          (100. *. g ".budget_remaining"))
      slo_objectives
  | _ -> ());
  let slow = counter_of s "serve.slow_logged" in
  if slow > 0 then line "slow log   %d request profile(s) captured" slow;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* --check invariants *)

let check_invariants ~prev s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) r f = Result.bind r f in
  (* A restart legitimately resets every counter and the seq, so the
     cross-snapshot invariants only apply within one server incarnation. *)
  let prev = if restarted ~prev s then None else prev in
  (* Counters are monotone across snapshots. *)
  let* () =
    match prev with
    | None -> Ok ()
    | Some p ->
      List.fold_left
        (fun acc (name, v) ->
          let* () = acc in
          let was = counter_of p name in
          if v < was then
            fail "counter %s went backwards (%d -> %d)" name was v
          else Ok ())
        (Ok ()) s.counters
  in
  let* () =
    match prev with
    | Some p when s.seq <= p.seq -> fail "seq did not advance (%d -> %d)" p.seq s.seq
    | _ -> Ok ()
  in
  (* Histogram totals reconcile with the terminal-status counters.  The
     exec/total histograms sample only ok requests; the queue histogram
     samples every executor-terminal request.  The executor observes the
     histogram immediately before bumping the counter without a lock a
     stats snapshot would take, so against a *live* server a snapshot may
     catch the single in-flight request between the two writes: each
     histogram total is allowed to lead its counter sum by at most one,
     and never to trail it. *)
  let hcount name =
    match hist_of s name with Some h -> h.count | None -> 0
  in
  let reconcile hname hc csum cdesc =
    if hc < csum || hc > csum + 1 then
      fail "%s count %d does not reconcile with %s %d" hname hc cdesc csum
    else Ok ()
  in
  let ok = counter_of s "serve.ok" in
  let* () = reconcile "serve.exec_ms" (hcount "serve.exec_ms") ok "serve.ok" in
  let* () =
    reconcile "serve.total_ms" (hcount "serve.total_ms") ok "serve.ok"
  in
  (* Every ok request passed the check; a failed one may have failed it (a
     snapshot mismatch) or raised before reaching it. *)
  let* () =
    let hc = hcount "serve.check_ms" and failed = counter_of s "serve.failed" in
    if hc < ok || hc > ok + failed + 1 then
      fail "serve.check_ms count %d does not reconcile with serve.ok %d + \
            serve.failed %d"
        hc ok failed
    else Ok ()
  in
  let executor_terminal =
    ok
    + counter_of s "serve.stalled"
    + counter_of s "serve.cancelled"
    + counter_of s "serve.failed"
  in
  let* () =
    reconcile "serve.queue_ms"
      (hcount "serve.queue_ms")
      executor_terminal "ok+stalled+cancelled+failed"
  in
  (* A histogram's bucket counts must sum to its count slot. *)
  let* () =
    List.fold_left
      (fun acc (name, h) ->
        let* () = acc in
        let total = Array.fold_left ( + ) 0 h.buckets in
        if total <> h.count then
          fail "histogram %s buckets sum to %d, count says %d" name total
            h.count
        else Ok ())
      (Ok ()) s.hists
  in
  (* SLO gauges, when exported, carry a valid level encoding and
     non-negative burn rates. *)
  List.fold_left
    (fun acc (name, v) ->
      let* () = acc in
      let has_suffix suf =
        String.length name >= String.length suf
        && String.sub name
             (String.length name - String.length suf)
             (String.length suf)
           = suf
      in
      if String.length name >= 4 && String.sub name 0 4 = "slo." then
        if has_suffix ".level" || name = "slo.level" then
          if v <> 0. && v <> 1. && v <> 2. then
            fail "gauge %s is not a level encoding (%g)" name v
          else Ok ()
        else if has_suffix ".fast_burn" || has_suffix ".slow_burn" then
          if v < 0. then fail "gauge %s is a negative burn rate (%g)" name v
          else Ok ()
        else Ok ()
      else Ok ())
    (Ok ()) s.gauges

(* ------------------------------------------------------------------ *)
(* Entry point *)

let run ~socket_path ~interval_s ~iterations ~check =
  let exit_ok = 0 and exit_usage = 2 and exit_violation = 4 in
  let prev = ref None in
  let code = ref exit_ok in
  let stop = ref false in
  let i = ref 0 in
  while not !stop do
    (match fetch ~retries:(if !i = 0 then 25 else 0) ~socket_path () with
    | Error msg ->
      (* A vanished server ends a watch loop quietly mid-stream, but a
         first fetch that never succeeds is a usage error. *)
      if !i = 0 || check then begin
        Printf.eprintf "top: %s\n" msg;
        code := exit_usage
      end;
      stop := true
    | Ok s ->
      if check then begin
        match check_invariants ~prev:!prev s with
        | Ok () ->
          Printf.printf "top: seq %d ok (%d counters, %d histograms)\n" s.seq
            (List.length s.counters) (List.length s.hists)
        | Error msg ->
          Printf.eprintf "top: invariant violated: %s\n" msg;
          code := exit_violation;
          stop := true
      end
      else print_string (render ?prev:!prev s);
      flush stdout;
      prev := Some s);
    Stdlib.incr i;
    if (iterations > 0 && !i >= iterations) || !stop then stop := true
    else try Unix.sleepf interval_s with Unix.Unix_error _ -> ()
  done;
  !code
