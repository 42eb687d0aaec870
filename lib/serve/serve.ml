(* The rpb serve request server.  See serve.mli for the architecture; the
   short version: conn systhreads parse + admit, one executor domain owns
   every Pool.run, and nothing a client does may kill the process or poison
   a pool. *)

module Pool = Rpb_pool.Pool
module Metrics = Rpb_obs.Metrics
module Slo = Rpb_obs.Slo
open Rpb_benchmarks

type config = {
  socket_path : string;
  threads : int;
  max_queue : int;
  drain_grace_s : float;
  scale_cap : int;
  preload : (string * string option * int) list;
  json_path : string option;
  quiet : bool;
  metrics_path : string option;
  metrics_interval_s : float;
  slow_log : int;
  slow_pctl : float;
  slo : Slo.spec option;
  slo_fast_s : float;
  slo_slow_s : float;
}

let default_config ~socket_path =
  {
    socket_path;
    threads = max 1 (Domain.recommended_domain_count () - 1);
    max_queue = 16;
    drain_grace_s = 2.0;
    scale_cap = 6;
    preload = [];
    json_path = None;
    quiet = false;
    metrics_path = None;
    metrics_interval_s = 1.0;
    slow_log = 8;
    slow_pctl = 99.0;
    slo = None;
    slo_fast_s = 60.;
    slo_slow_s = 3600.;
  }

(* ------------------------------------------------------------------ *)
(* Live-metrics instruments.  Find-or-create on a process-global registry,
   so module initialization is the natural creation point; every bump below
   costs one atomic load while the plane is disabled. *)

let m_accepted = Metrics.counter "serve.accepted"
let m_ok = Metrics.counter "serve.ok"
let m_shed = Metrics.counter "serve.shed"
let m_stalled = Metrics.counter "serve.stalled"
let m_cancelled = Metrics.counter "serve.cancelled"
let m_failed = Metrics.counter "serve.failed"
let m_rejected = Metrics.counter "serve.rejected"
let m_shutdown_replies = Metrics.counter "serve.shutdown_replies"
let m_disconnects = Metrics.counter "serve.disconnects"
let m_connections = Metrics.counter "serve.connections"
let m_stats_requests = Metrics.counter "serve.stats_requests"
let m_health_requests = Metrics.counter "serve.health_requests"
let m_slow_logged = Metrics.counter "serve.slow_logged"
let m_queue_hist = Metrics.histogram "serve.queue_ms"
let m_exec_hist = Metrics.histogram "serve.exec_ms"
let m_total_hist = Metrics.histogram "serve.total_ms"
let m_check_hist = Metrics.histogram "serve.check_ms"
let m_ewma = Metrics.gauge "serve.ewma_service_ms"

type stats = {
  accepted : int;
  ok : int;
  shed : int;
  stalled : int;
  cancelled : int;
  failed : int;
  rejected : int;
  shutdown_replies : int;
  disconnects : int;
  connections : int;
  max_occupancy : int;
}

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;  (* serializes writes; guards [alive] for writers *)
  mutable alive : bool;
}

type job = {
  req : Protocol.request;
  jconn : conn;
  enqueued_at : float;
  jcancelled : bool Atomic.t;
}

type req_record = {
  r_id : int;
  r_bench : string;
  r_status : string;
  r_queue_ms : float;
  r_exec_ms : float;
}

let max_records = 4096

(* One running SLO engine plus its gauge exports.  The engine is fed only
   from the sampler thread; [last] is read by the [health] verb under
   [mmutex].  The overall level additionally lives in the process-global
   [Slo.current_level] register so the admission path reads it with one
   atomic load. *)
type slo_state = {
  engine : Slo.t;
  g_overall : Metrics.gauge;
  (* (level, fast_burn, slow_burn, budget_remaining) per objective, in
     spec order. *)
  g_objs : (Metrics.gauge * Metrics.gauge * Metrics.gauge * Metrics.gauge) list;
  mutable last : Slo.verdict list;
}

(* A prepared instance and what every run of it must reproduce: the
   snapshot of its sequential run, verified once when the instance was
   built, and that snapshot's digest. *)
type instance = {
  p : Common.prepared;
  expected : int array;
  digest : int;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  started_at : float;
  pool : Pool.t;  (* every request runs here, on the executor domain *)
  (* --- queue state, all under [qmutex] --- *)
  qmutex : Mutex.t;
  qcond : Condition.t;
  queue : job Queue.t;
  mutable inflight : job option;
  mutable draining : bool;
  mutable ewma_ms : float;
  mutable c : stats;
  mutable records : req_record list;  (* newest first, capped *)
  mutable n_records : int;
  (* --- prepared-instance cache: executor-domain only --- *)
  prepared : (string * string * int, instance) Hashtbl.t;
  (* --- connections, under [cmutex] --- *)
  cmutex : Mutex.t;
  mutable conn_threads : Thread.t list;
  mutable live_conns : conn list;
  mutable accept_thread : Thread.t option;
  mutable executor : unit Domain.t option;
  smutex : Mutex.t;  (* serializes [stop] *)
  mutable stopped : bool;
  (* --- live metrics plane --- *)
  mmutex : Mutex.t;  (* guards the JSONL channel and the slow-request log *)
  mutable metrics_oc : out_channel option;
  mutable metrics_thread : Thread.t option;
  metrics_stop : bool Atomic.t;
  mutable slow_docs : Bench_json.json list;  (* newest first, capped *)
  mutable n_slow : int;
  (* --- SLO engine (sampler thread feeds, health verb reads) --- *)
  slo : slo_state option;
}

let socket_path t = t.cfg.socket_path

let zero_stats =
  {
    accepted = 0;
    ok = 0;
    shed = 0;
    stalled = 0;
    cancelled = 0;
    failed = 0;
    rejected = 0;
    shutdown_replies = 0;
    disconnects = 0;
    connections = 0;
    max_occupancy = 0;
  }

let stats t =
  Mutex.lock t.qmutex;
  let s = t.c in
  Mutex.unlock t.qmutex;
  s

let log t fmt =
  Printf.ksprintf
    (fun s -> if not t.cfg.quiet then Printf.eprintf "serve: %s\n%!" s)
    fmt

(* ------------------------------------------------------------------ *)
(* Replies *)

(* Writes race with connection teardown: [alive] flips under [wmutex]
   before the reader thread closes the fd, so a reply is either written to
   the live fd or dropped — never written to a recycled descriptor. *)
let send_payload conn payload =
  Mutex.lock conn.wmutex;
  (try if conn.alive then Protocol.write_frame conn.fd payload
   with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.unlock conn.wmutex

let send conn reply = send_payload conn (Protocol.reply_line reply)

let err ?(id = -1) ?retry_after_ms kind msg =
  Protocol.Err_reply { id; kind; retry_after_ms; msg }

(* ------------------------------------------------------------------ *)
(* Request execution (executor domain) *)

exception Verify_failed of string

let resolve_input entry = function
  | Some i -> i
  | None -> List.hd entry.Common.inputs

(* Runs the sequential baseline once, requires [verify] on its output and
   keeps its snapshot.  By the [Common.prepared] snapshot contract, a later
   run whose snapshot equals it passes [verify] too, so a request needs only
   that comparison. *)
let instance_of (p : Common.prepared) =
  p.run_seq ();
  if not (p.verify ()) then
    raise (Verify_failed "sequential run failed verify");
  let expected = p.snapshot () in
  { p; expected; digest = Protocol.digest_hash expected }

let prepare_cached t entry ~input ~scale =
  let key = (entry.Common.name, input, scale) in
  match Hashtbl.find_opt t.prepared key with
  | Some inst -> (key, inst)
  | None ->
    let pool = t.pool in
    let inst =
      Pool.run pool (fun () ->
          instance_of (entry.Common.prepare pool ~input ~scale))
    in
    Hashtbl.replace t.prepared key inst;
    (key, inst)

let observe_check_since t0 =
  Metrics.observe_ms m_check_hist ((Rpb_prim.Timing.now () -. t0) *. 1e3)

(* 1 ms of busy work per index; grain 1 so cancellation is observed at
   millisecond granularity. *)
let run_spin pool (req : Protocol.request) =
  let chunks = max 1 req.spin_ms in
  let t0 = Rpb_prim.Timing.now () in
  Pool.run ?deadline:req.deadline_s pool (fun () ->
      Pool.parallel_for ~grain:1 ~start:0 ~finish:(chunks - 1)
        ~body:(fun _ ->
          let stop_at = Rpb_prim.Timing.now () +. 1e-3 in
          while Rpb_prim.Timing.now () < stop_at do
            ignore (Sys.opaque_identity 0)
          done)
        pool);
  let t1 = Rpb_prim.Timing.now () in
  (* Spin has no output: its check is the digest of the request itself. *)
  let digest = Protocol.digest_hash [| req.spin_ms |] in
  observe_check_since t1;
  (digest, (t1 -. t0) *. 1e3)

let run_bench t (req : Protocol.request) =
  let pool = t.pool in
  let entry = Option.get (Registry.find req.bench) in
  let input = resolve_input entry req.input in
  let mode = Option.get (Mode.of_string req.mode) in
  let key, inst = prepare_cached t entry ~input ~scale:req.scale in
  try
    let t0 = Rpb_prim.Timing.now () in
    Pool.run ?deadline:req.deadline_s pool (fun () ->
        inst.p.Common.run_par mode);
    let t1 = Rpb_prim.Timing.now () in
    (* The one check per request: equal snapshots carry equal digests, so
       the reply reuses the sequential one. *)
    let same =
      Pool.run pool (fun () -> inst.p.Common.snapshot () = inst.expected)
    in
    observe_check_since t1;
    if not same then
      raise (Verify_failed "output differs from the sequential output");
    (inst.digest, (t1 -. t0) *. 1e3)
  with e ->
    (* A stalled, cancelled, faulted or mismatched run can leave the prepared
       instance's output buffers partially written; drop it so the next
       request re-prepares from scratch. *)
    Hashtbl.remove t.prepared key;
    raise e

(* Returns (status, reply option, exec_ms).  A [Pool.Cancelled] without our
   own cancel mark is a stale cancellation from an earlier job's disconnect
   poisoning the fresh scope — retried once (the scope is clean again after
   the aborted run). *)
let execute t job =
  let pool = t.pool in
  let req = job.req in
  let queue_ms = (Rpb_prim.Timing.now () -. job.enqueued_at) *. 1e3 in
  (* Request-scoped scheduler tracing: the whole run executes under a span
     named for the request, so when the flight recorder is armed (the
     slow-request log, or an operator-started [Recorder] session) every
     Phase event attributes scheduler behaviour to a request id.  One atomic
     load while the recorder is off. *)
  let span_name = Printf.sprintf "request:%d:%s" req.id req.bench in
  let attempt () =
    Pool.Recorder.span pool span_name (fun () ->
        if req.bench = "spin" then run_spin pool req else run_bench t req)
  in
  match
    try attempt ()
    with Pool.Cancelled when not (Atomic.get job.jcancelled) -> attempt ()
  with
  | digest, exec_ms ->
    ( "ok",
      Some (Protocol.Ok_reply { id = req.id; digest; queue_ms; exec_ms }),
      exec_ms )
  | exception Pool.Stalled msg ->
    let brief =
      match String.index_opt msg '\n' with
      | Some i -> String.sub msg 0 i
      | None -> msg
    in
    ("stalled", Some (err ~id:req.id Protocol.Stalled brief), 0.)
  | exception Pool.Cancelled ->
    ("cancelled", Some (err ~id:req.id Protocol.Cancelled "disconnected"), 0.)
  | exception Verify_failed msg ->
    ( "failed",
      Some (err ~id:req.id Protocol.Failed ("verification failed: " ^ msg)),
      0. )
  | exception Pool.Fault.Injected msg ->
    ("failed", Some (err ~id:req.id Protocol.Failed ("fault: " ^ msg)), 0.)
  | exception e ->
    ("failed", Some (err ~id:req.id Protocol.Failed (Printexc.to_string e)), 0.)

let record t ~(job : job) ~status ~queue_ms ~exec_ms =
  if t.n_records < max_records then begin
    t.records <-
      {
        r_id = job.req.id;
        r_bench = job.req.bench;
        r_status = status;
        r_queue_ms = queue_ms;
        r_exec_ms = exec_ms;
      }
      :: t.records;
    t.n_records <- t.n_records + 1
  end

let bump t status =
  (match status with
  | "ok" -> Metrics.incr m_ok
  | "stalled" -> Metrics.incr m_stalled
  | "cancelled" -> Metrics.incr m_cancelled
  | "shutdown" -> Metrics.incr m_shutdown_replies
  | _ -> Metrics.incr m_failed);
  t.c <-
    (match status with
    | "ok" -> { t.c with ok = t.c.ok + 1 }
    | "stalled" -> { t.c with stalled = t.c.stalled + 1 }
    | "cancelled" -> { t.c with cancelled = t.c.cancelled + 1 }
    | "shutdown" -> { t.c with shutdown_replies = t.c.shutdown_replies + 1 }
    | _ -> { t.c with failed = t.c.failed + 1 })

(* ------------------------------------------------------------------ *)
(* Slow-request log.  While the metrics plane is on and [slow_log > 0],
   every request executes under a private flight-recorder session; a
   request whose exec time clears the [slow_pctl] percentile of the exec
   histogram (threshold frozen before the request runs, and never before
   32 samples exist) keeps its recording, reduced by [Sp_dag.analyze] to a
   PROFILE-compatible document — so `rpb report` and the work/span
   tooling render a slow production request exactly like an `rpb profile`
   run. *)

let slow_sample_floor = 32

let slow_active t = t.cfg.slow_log > 0 && Metrics.enabled ()

let slow_threshold_ms t =
  if not (slow_active t) then infinity
  else if Metrics.hist_count m_exec_hist < slow_sample_floor then infinity
  else Metrics.percentile_ms m_exec_hist t.cfg.slow_pctl

let slow_doc t (job : job) ~exec_ms recording =
  let req = job.req in
  let metrics = Rpb_obs.Sp_dag.analyze recording in
  Rpb_obs.Profile.to_json
    {
      Rpb_obs.Profile.bench = req.Protocol.bench;
      input = Option.value req.Protocol.input ~default:"-";
      size = Printf.sprintf "slow request id=%d" req.Protocol.id;
      mode = req.Protocol.mode;
      scale = req.Protocol.scale;
      threads = t.cfg.threads;
      seed = 0;
      elapsed_ns = exec_ms *. 1e6;
      verified = true;
      workers = [];
      metrics;
    }

let rec list_take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: list_take (n - 1) rest

let push_slow t doc =
  Metrics.incr m_slow_logged;
  Mutex.lock t.mmutex;
  t.slow_docs <- doc :: list_take (t.cfg.slow_log - 1) t.slow_docs;
  t.n_slow <- min t.cfg.slow_log (t.n_slow + 1);
  (* Stream it into the metrics JSONL too: the report loader classifies
     each line by kind, so the doc lands in the dashboard's profile
     section on its own. *)
  (match t.metrics_oc with
  | Some oc -> (
    try
      output_string oc (Bench_json.to_string doc);
      output_char oc '\n';
      flush oc
    with Sys_error _ -> ())
  | None -> ());
  Mutex.unlock t.mmutex

(* One SLO evaluation, on the sampler thread: take a snapshot, feed the
   engine, export the verdicts as slo.* gauges (so top/--check/report see
   them through the ordinary snapshot path) and publish the overall level
   to the global register the admission path reads. *)
let slo_tick t =
  match t.slo with
  | None -> ()
  | Some s -> (
    match Slo.feed_snapshot s.engine (Metrics.snapshot ()) with
    | None -> ()
    | Some vs ->
      List.iter2
        (fun (gl, gf, gs, gb) (v : Slo.verdict) ->
          Metrics.set_gauge gl (float_of_int (Slo.level_index v.Slo.v_level));
          Metrics.set_gauge gf v.Slo.v_fast_burn;
          Metrics.set_gauge gs v.Slo.v_slow_burn;
          Metrics.set_gauge gb v.Slo.v_budget_remaining)
        s.g_objs vs;
      let lvl = Slo.overall vs in
      Metrics.set_gauge s.g_overall (float_of_int (Slo.level_index lvl));
      Slo.set_current lvl;
      Mutex.lock t.mmutex;
      s.last <- vs;
      Mutex.unlock t.mmutex)

let executor_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.qcond t.qmutex
    done;
    if Queue.is_empty t.queue then begin
      (* draining and nothing queued: done *)
      running := false;
      Mutex.unlock t.qmutex
    end
    else begin
      let job = Queue.pop t.queue in
      if t.draining then begin
        bump t "shutdown";
        Mutex.unlock t.qmutex;
        send job.jconn (err ~id:job.req.id Protocol.Shutting_down "draining")
      end
      else if Atomic.get job.jcancelled then begin
        bump t "cancelled";
        let queue_ms = (Rpb_prim.Timing.now () -. job.enqueued_at) *. 1e3 in
        Metrics.observe_ms m_queue_hist queue_ms;
        record t ~job ~status:"cancelled" ~queue_ms ~exec_ms:0.;
        Mutex.unlock t.qmutex
      end
      else begin
        t.inflight <- Some job;
        Mutex.unlock t.qmutex;
        (* Freeze the slow threshold before this request's own sample can
           move it, then run under a private recorder session. *)
        let threshold_ms = slow_threshold_ms t in
        let recording_armed = slow_active t in
        if recording_armed then
          Pool.Recorder.start ~ring_capacity:4096 ();
        let qwait_ms = (Rpb_prim.Timing.now () -. job.enqueued_at) *. 1e3 in
        let status, reply, exec_ms = execute t job in
        let recording =
          if recording_armed then Some (Pool.Recorder.stop ()) else None
        in
        let queue_ms = (Rpb_prim.Timing.now () -. job.enqueued_at) *. 1e3 in
        (* Histogram observations sit directly against the status-counter
           bump: a stats snapshot racing this request sees histogram
           totals at most one ahead of the counters (the single in-flight
           request), which is exactly the skew Top.check_invariants
           allows.  The expensive slow-request analysis runs after both,
           outside the window. *)
        Metrics.observe_ms m_queue_hist qwait_ms;
        if status = "ok" then begin
          Metrics.observe_ms m_exec_hist exec_ms;
          Metrics.observe_ms m_total_hist (qwait_ms +. exec_ms)
        end;
        Mutex.lock t.qmutex;
        t.inflight <- None;
        bump t status;
        if status = "ok" then begin
          t.ewma_ms <- (0.8 *. t.ewma_ms) +. (0.2 *. exec_ms);
          Metrics.set_gauge m_ewma t.ewma_ms
        end;
        record t ~job ~status ~queue_ms ~exec_ms;
        Mutex.unlock t.qmutex;
        (match recording with
        | Some r when status = "ok" && exec_ms >= threshold_ms ->
          push_slow t (slow_doc t job ~exec_ms r)
        | _ -> ());
        match reply with Some r -> send job.jconn r | None -> ()
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Admission (connection threads) *)

let validate t (req : Protocol.request) =
  if req.bench = "spin" then
    if req.spin_ms <= 0 then
      Error (Protocol.Malformed_request, "spin requires spin_ms > 0")
    else Ok ()
  else
    match Registry.find req.bench with
    | None ->
      Error
        ( Protocol.Unknown_bench,
          Printf.sprintf "unknown bench %s (have: %s)"
            (Protocol.sanitize req.bench)
            (String.concat " " Registry.names) )
    | Some entry ->
      if Mode.of_string req.mode = None then
        Error
          ( Protocol.Malformed_request,
            "unknown mode " ^ Protocol.sanitize req.mode )
      else
        let input = resolve_input entry req.input in
        if not (List.mem input entry.Common.inputs) then
          Error
            ( Protocol.Malformed_request,
              Printf.sprintf "unknown input %s for %s"
                (Protocol.sanitize input) entry.Common.name )
        else if req.scale > t.cfg.scale_cap then
          Error
            ( Protocol.Malformed_request,
              Printf.sprintf "scale %d exceeds server cap %d" req.scale
                t.cfg.scale_cap )
        else Ok ()

let retry_after_ms t occupancy =
  let hint = t.ewma_ms *. float_of_int (occupancy + 1) in
  max 1 (min 10_000 (int_of_float hint))

let admit t conn (req : Protocol.request) =
  (* Budget-aware admission: the SLO engine's level (one atomic load;
     always Ok without --slo) tightens the effective queue cap and scales
     the backoff hint deterministically, so a paging server sheds harder
     and pushes clients further out until the burn drains. *)
  let level = Slo.current_level () in
  let cap = Slo.effective_queue_cap level t.cfg.max_queue in
  Mutex.lock t.qmutex;
  if t.draining then begin
    t.c <- { t.c with shutdown_replies = t.c.shutdown_replies + 1 };
    Mutex.unlock t.qmutex;
    send conn (err ~id:req.id Protocol.Shutting_down "draining")
  end
  else begin
    let occupancy =
      Queue.length t.queue + (match t.inflight with Some _ -> 1 | None -> 0)
    in
    if occupancy >= cap then begin
      t.c <- { t.c with shed = t.c.shed + 1 };
      Metrics.incr m_shed;
      let hint =
        min 30_000 (retry_after_ms t occupancy * Slo.admission_scale level)
      in
      Mutex.unlock t.qmutex;
      send conn
        (err ~id:req.id ~retry_after_ms:hint Protocol.Overloaded
           (Printf.sprintf "queue full (%d of %d)" occupancy cap))
    end
    else begin
      let job =
        {
          req;
          jconn = conn;
          enqueued_at = Rpb_prim.Timing.now ();
          jcancelled = Atomic.make false;
        }
      in
      Queue.push job t.queue;
      Metrics.incr m_accepted;
      t.c <-
        {
          t.c with
          accepted = t.c.accepted + 1;
          max_occupancy = max t.c.max_occupancy (occupancy + 1);
        };
      Condition.signal t.qcond;
      Mutex.unlock t.qmutex
    end
  end

let reject t conn reply =
  Mutex.lock t.qmutex;
  t.c <- { t.c with rejected = t.c.rejected + 1 };
  Mutex.unlock t.qmutex;
  Metrics.incr m_rejected;
  send conn reply

(* [verb=stats] bypasses admission entirely (no queue slot, no executor
   round-trip): the reply frame's payload is the raw [kind="metrics"]
   snapshot JSON.  Served even while draining — drain is exactly when an
   operator wants a last look. *)
let handle_stats t conn (_req : Protocol.request) =
  ignore t;
  Metrics.incr m_stats_requests;
  send_payload conn (Bench_json.to_string (Metrics.snapshot ()))

(* [verb=health] is the SLO verdict plane: same admission bypass and
   drain behaviour as [stats], but the payload is the [kind="health"]
   document — overall status, per-objective burn rates, and the admission
   tightening currently in force.  Without --slo it reports an
   objective-less [ok]. *)
let handle_health t conn (_req : Protocol.request) =
  Metrics.incr m_health_requests;
  let verdicts =
    match t.slo with
    | None -> []
    | Some s ->
      Mutex.lock t.mmutex;
      let vs = s.last in
      Mutex.unlock t.mmutex;
      vs
  in
  send_payload conn
    (Bench_json.to_string
       (Slo.health_json ~verdicts ~max_queue:t.cfg.max_queue))

let handle_line t conn line =
  match Protocol.parse_request line with
  | Error msg -> reject t conn (err Protocol.Malformed_request msg)
  | Ok req -> (
    match req.verb with
    | "stats" -> handle_stats t conn req
    | "health" -> handle_health t conn req
    | "run" -> (
      match validate t req with
      | Error (kind, msg) -> reject t conn (err ~id:req.id kind msg)
      | Ok () -> admit t conn req)
    | v ->
      reject t conn
        (err ~id:req.id Protocol.Malformed_request
           ("unknown verb " ^ Protocol.sanitize v)))

(* ------------------------------------------------------------------ *)
(* Connection lifecycle *)

(* Tear down one connection's server-side state: stop future writes, cancel
   its queued jobs, cooperatively cancel its in-flight run.  Idempotent. *)
let on_conn_end t conn ~clean =
  Mutex.lock conn.wmutex;
  let was_alive = conn.alive in
  conn.alive <- false;
  Mutex.unlock conn.wmutex;
  if was_alive then begin
    Mutex.lock t.qmutex;
    let outstanding = ref false in
    Queue.iter
      (fun j ->
        if j.jconn == conn then begin
          Atomic.set j.jcancelled true;
          outstanding := true
        end)
      t.queue;
    (match t.inflight with
    | Some j when j.jconn == conn ->
      Atomic.set j.jcancelled true;
      outstanding := true;
      Pool.cancel_run t.pool Pool.Cancelled
    | _ -> ());
    if (not clean) || !outstanding then begin
      t.c <- { t.c with disconnects = t.c.disconnects + 1 };
      Metrics.incr m_disconnects
    end;
    Mutex.unlock t.qmutex
  end

let conn_loop t conn =
  let r = Protocol.reader conn.fd in
  let clean = ref false in
  (try
     let rec go () =
       match Protocol.read_frame r with
       | None -> clean := true
       | Some line ->
         handle_line t conn line;
         go ()
     in
     go ()
   with
  | Protocol.Malformed msg ->
    (* Framing is gone — reply once, then drop the connection. *)
    reject t conn (err Protocol.Malformed_request msg)
  | Unix.Unix_error _ | Sys_error _ -> ()
  | _ -> ());
  on_conn_end t conn ~clean:!clean;
  Mutex.lock t.cmutex;
  t.live_conns <- List.filter (fun c -> c != conn) t.live_conns;
  Mutex.unlock t.cmutex;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

let accept_loop t =
  let stop = ref false in
  while not !stop do
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> stop := true
    | fd, _ ->
      Mutex.lock t.qmutex;
      let draining = t.draining in
      if not draining then begin
        t.c <- { t.c with connections = t.c.connections + 1 };
        Metrics.incr m_connections
      end;
      Mutex.unlock t.qmutex;
      if draining then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        stop := true
      end
      else begin
        let conn = { fd; wmutex = Mutex.create (); alive = true } in
        Mutex.lock t.cmutex;
        t.live_conns <- conn :: t.live_conns;
        let th = Thread.create (fun () -> conn_loop t conn) () in
        t.conn_threads <- th :: t.conn_threads;
        Mutex.unlock t.cmutex
      end
  done

(* ------------------------------------------------------------------ *)
(* Artifact *)

let artifact_json t =
  let open Bench_json in
  let s = t.c in
  let reqs =
    List.rev_map
      (fun r ->
        Obj
          [
            ("id", Int r.r_id);
            ("bench", Str r.r_bench);
            ("status", Str r.r_status);
            ("queue_ms", Float r.r_queue_ms);
            ("exec_ms", Float r.r_exec_ms);
          ])
      t.records
  in
  let exec_lat = Latency.create () in
  List.iter
    (fun r -> if r.r_status = "ok" then Latency.add exec_lat r.r_exec_ms)
    t.records;
  Obj
    [
      ("schema_version", Int schema_version);
      ("kind", Str "serve");
      ("role", Str "server");
      ( "meta",
        Obj
          [
            ("socket", Str t.cfg.socket_path);
            ("threads", Int t.cfg.threads);
            ("max_queue", Int t.cfg.max_queue);
            ("scale_cap", Int t.cfg.scale_cap);
            ("uptime_s", Float (Rpb_prim.Timing.now () -. t.started_at));
          ] );
      ( "counters",
        Obj
          [
            ("accepted", Int s.accepted);
            ("ok", Int s.ok);
            ("shed", Int s.shed);
            ("stalled", Int s.stalled);
            ("cancelled", Int s.cancelled);
            ("failed", Int s.failed);
            ("rejected", Int s.rejected);
            ("shutdown_replies", Int s.shutdown_replies);
            ("disconnects", Int s.disconnects);
            ("connections", Int s.connections);
            ("max_occupancy", Int s.max_occupancy);
          ] );
      ("ewma_service_ms", Float t.ewma_ms);
      ("exec_latency", Latency.(summary_to_json (summarize exec_lat)));
      ("requests", List reqs);
      ("slow_requests", List (List.rev t.slow_docs));
    ]

let write_artifact t =
  match t.cfg.json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Bench_json.to_string (artifact_json t));
    output_char oc '\n';
    close_out oc;
    log t "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let preload_all t =
  List.iter
    (fun (bench, input, scale) ->
      match Registry.find bench with
      | None -> failwith (Printf.sprintf "preload: unknown bench %s" bench)
      | Some entry ->
        let input = resolve_input entry input in
        if not (List.mem input entry.Common.inputs) then
          failwith
            (Printf.sprintf "preload: unknown input %s for %s" input bench);
        let _key, _p = prepare_cached t entry ~input ~scale in
        log t "preloaded %s/%s scale=%d" bench input scale)
    t.cfg.preload

let start ?(instances = []) cfg =
  (* A peer closing mid-write must surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path;
    Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
    Unix.listen listen_fd 64;
    let pool = Pool.create ~num_workers:cfg.threads () in
    let slo_state =
      match cfg.slo with
      | None -> None
      | Some spec ->
        let params =
          {
            Slo.default_params with
            Slo.fast_s = cfg.slo_fast_s;
            slow_s = cfg.slo_slow_s;
          }
        in
        Some
          {
            engine = Slo.create ~params spec;
            g_overall = Metrics.gauge "slo.level";
            g_objs =
              List.map
                (fun (name, _) ->
                  ( Metrics.gauge ("slo." ^ name ^ ".level"),
                    Metrics.gauge ("slo." ^ name ^ ".fast_burn"),
                    Metrics.gauge ("slo." ^ name ^ ".slow_burn"),
                    Metrics.gauge ("slo." ^ name ^ ".budget_remaining") ))
                spec;
            last = [];
          }
    in
    if Option.is_some slo_state then Slo.reset_current ();
    let t =
      {
        cfg;
        listen_fd;
        started_at = Rpb_prim.Timing.now ();
        pool;
        qmutex = Mutex.create ();
        qcond = Condition.create ();
        queue = Queue.create ();
        inflight = None;
        draining = false;
        ewma_ms = 5.0;
        c = zero_stats;
        records = [];
        n_records = 0;
        prepared = Hashtbl.create 32;
        cmutex = Mutex.create ();
        conn_threads = [];
        live_conns = [];
        accept_thread = None;
        executor = None;
        smutex = Mutex.create ();
        stopped = false;
        mmutex = Mutex.create ();
        metrics_oc = None;
        metrics_thread = None;
        metrics_stop = Atomic.make false;
        slow_docs = [];
        n_slow = 0;
        slo = slo_state;
      }
    in
    (* A preload that fails (or fails its sequential check) refuses the
       start; nothing but the pool is running yet. *)
    (try
       preload_all t;
       List.iter
         (fun (key, p) ->
           let inst = Pool.run pool (fun () -> instance_of p) in
           Hashtbl.replace t.prepared key inst)
         instances
     with e ->
       Pool.shutdown pool;
       (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
       raise e);
    (* The serving layer always runs with the metrics plane on: that is
       its whole observability story ([stats] verb, [rpb top], slow-request
       log).  Batch/bench paths leave it off and pay one atomic load. *)
    Metrics.enable ();
    Metrics.register_pool pool;
    ignore (Metrics.sample_gc_pauses ());
    Metrics.probe "serve.occupancy" (fun () ->
        Mutex.lock t.qmutex;
        let o =
          Queue.length t.queue
          + (match t.inflight with Some _ -> 1 | None -> 0)
        in
        Mutex.unlock t.qmutex;
        float_of_int o);
    Metrics.probe "serve.queue_depth" (fun () ->
        Mutex.lock t.qmutex;
        let n = Queue.length t.queue in
        Mutex.unlock t.qmutex;
        float_of_int n);
    Metrics.probe "serve.connections_live" (fun () ->
        Mutex.lock t.cmutex;
        let n = List.length t.live_conns in
        Mutex.unlock t.cmutex;
        float_of_int n);
    (match cfg.metrics_path with
    | Some path ->
      let oc = open_out path in
      t.metrics_oc <- Some oc;
      Mutex.lock t.mmutex;
      Metrics.write_snapshot_line oc;
      Mutex.unlock t.mmutex
    | None -> ());
    (* One sampler thread serves both periodic consumers: the SLO
       evaluation and the JSONL stream.  Either alone still needs the
       thread; neither means no thread at all. *)
    if Option.is_some t.metrics_oc || Option.is_some t.slo then
      t.metrics_thread <-
        Some
          (Thread.create
             (fun () ->
               while not (Atomic.get t.metrics_stop) do
                 Unix.sleepf cfg.metrics_interval_s;
                 slo_tick t;
                 Mutex.lock t.mmutex;
                 (match t.metrics_oc with
                 | Some oc -> (
                   try Metrics.write_snapshot_line oc with Sys_error _ -> ())
                 | None -> ());
                 Mutex.unlock t.mmutex
               done)
             ());
    t.executor <- Some (Domain.spawn (fun () -> executor_loop t));
    t.accept_thread <- Some (Thread.create accept_loop t);
    log t "listening on %s (threads=%d max_queue=%d)" cfg.socket_path
      cfg.threads cfg.max_queue;
    Ok t
  with e ->
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Error (Printexc.to_string e)

(* Wake a blocked [accept] — closing the fd from another thread does not
   interrupt it on Linux. *)
let nudge_accept t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let stop t =
  Mutex.lock t.smutex;
  if not t.stopped then begin
    Mutex.lock t.qmutex;
    t.draining <- true;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qmutex;
    log t "draining";
    nudge_accept t;
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
    (* Give the in-flight request [drain_grace_s] to finish, then cancel it
       cooperatively on the shared timer wheel. *)
    let grace =
      Pool.Timer.schedule ~delay_s:t.cfg.drain_grace_s (fun () ->
          Mutex.lock t.qmutex;
          (match t.inflight with
          | Some j ->
            Atomic.set j.jcancelled true;
            Pool.cancel_run t.pool Pool.Cancelled
          | None -> ());
          Mutex.unlock t.qmutex)
    in
    Option.iter Domain.join t.executor;
    Pool.Timer.cancel grace;
    (* Unblock connection readers (close alone does not wake them), then
       join; each reader owns its fd's close. *)
    Mutex.lock t.cmutex;
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.live_conns;
    let threads = t.conn_threads in
    Mutex.unlock t.cmutex;
    List.iter Thread.join threads;
    (* Final metrics snapshot, then retire the JSONL stream. *)
    Atomic.set t.metrics_stop true;
    Option.iter Thread.join t.metrics_thread;
    t.metrics_thread <- None;
    (* Release the admission register so later servers (or tests) in this
       process start from Ok. *)
    if Option.is_some t.slo then Slo.reset_current ();
    Mutex.lock t.mmutex;
    (match t.metrics_oc with
    | Some oc ->
      (try
         Metrics.write_snapshot_line oc;
         close_out oc
       with Sys_error _ -> ());
      t.metrics_oc <- None
    | None -> ());
    Mutex.unlock t.mmutex;
    write_artifact t;
    Pool.shutdown t.pool;
    (* The shared timer wheel spawned its domain for our deadlines and the
       drain-grace timer; retire it with the server so a drained process
       holds no background domain. *)
    Pool.Timer.shutdown ();
    t.stopped <- true;
    log t "stopped (ok=%d shed=%d stalled=%d cancelled=%d failed=%d)" t.c.ok
      t.c.shed t.c.stalled t.c.cancelled t.c.failed
  end;
  Mutex.unlock t.smutex
