(* The serve phase: a child [rpb serve] process driven over its socket, with
   a closed loop for capacity and a seeded open loop for latency.  Load
   comes from this one process: at most two threads and two connections. *)

module Protocol = Rpb_serve.Protocol
module Rng = Rpb_prim.Rng
module Pool = Rpb_pool.Pool
open Rpb_benchmarks

let now = Rpb_prim.Timing.now

(* The server's settings.  One pool worker: the server already runs an I/O
   domain and an executor domain, and a second worker would put three
   domains on two cores.  [--slow-log 0] turns off the per-request flight
   recorder, so the serve numbers are taken with tracing off. *)
let server_args =
  [ "serve"; "--threads"; "1"; "--max-queue"; "64"; "--slow-log"; "0"; "--quiet" ]

type server = { pid : int; socket : string; mutable alive : bool }

let live : server list ref = ref []

let reap s =
  s.alive <- false;
  live := List.filter (fun x -> x != s) !live;
  try Sys.remove s.socket with Sys_error _ -> ()

let stop s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
      | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ();
    reap s
  end

let () = at_exit (fun () -> List.iter stop !live)

(* rpb.exe is built next to perf.exe: _build/default/{bin,bench/perf}. *)
let rpb_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/rpb.exe"

(* [preload] holds (benchmark, scale) pairs, default input. *)
let spawn ~socket ~preload =
  let exe = rpb_exe () in
  if not (Sys.file_exists exe) then failwith ("rpb server binary not found: " ^ exe);
  let args =
    (exe :: server_args) @ [ "--socket"; socket ]
    @ List.concat_map (fun (b, s) -> [ "--preload"; Printf.sprintf "%s::%d" b s ]) preload
  in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr
  in
  let s = { pid; socket; alive = true } in
  live := s :: !live;
  s

let check_alive s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> ()
  | _ ->
    reap s;
    failwith "rpb serve exited early"
  | exception Unix.Unix_error _ -> ()

(* Replies time out after [reply_timeout_s]: a lost reply is a failure, not
   a hang. *)
let reply_timeout_s = 20.

let connect s =
  let deadline = now () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.socket) with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
      fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when now () < deadline ->
      Unix.close fd;
      check_alive s;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let send fd req = Protocol.write_frame fd (Protocol.request_line req)

let recv r =
  match Protocol.read_frame r with
  | None -> Error "connection closed"
  | Some line -> Protocol.parse_reply line
  | exception (Protocol.Malformed m) -> Error m
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* A request class and the digest its replies must carry: the
   [Protocol.digest_hash] of a locally prepared instance's sequential
   snapshot. *)
type cls = { bench : string; mode : string; scale : int; digest : int }

(* Prepares each class locally, and times what the server pays after every
   run of it: verify + snapshot + digest.  Returns the classes and that
   time in ms (mean over the classes of a median of 15). *)
let classes mix =
  let pool = Pool.create ~num_workers:1 () in
  let by_bench = Hashtbl.create 4 in
  let verify_ms = ref [] in
  let cls =
    List.map
      (fun (bench, mode, scale) ->
        let digest =
          match Hashtbl.find_opt by_bench (bench, scale) with
          | Some d -> d
          | None ->
            let entry = Batch.entry_of bench in
            let d =
              Pool.run pool (fun () ->
                  let q = entry.Common.prepare pool ~input:(List.hd entry.Common.inputs) ~scale in
                  q.Common.run_seq ();
                  let d = Protocol.digest_hash (q.Common.snapshot ()) in
                  q.Common.run_par Mode.Unsafe;
                  let times =
                    Array.init 15 (fun _ ->
                        let t0 = now () in
                        ignore (q.Common.verify ());
                        ignore (Protocol.digest_hash (q.Common.snapshot ()));
                        (now () -. t0) *. 1e3)
                  in
                  verify_ms := Rpb_obs.Stats.median times :: !verify_ms;
                  d)
            in
            Hashtbl.replace by_bench (bench, scale) d;
            d
        in
        { bench; mode; scale; digest })
      mix
  in
  Pool.shutdown pool;
  (Array.of_list cls, Rpb_obs.Stats.mean (Array.of_list !verify_ms))

(* One request's record.  Times are seconds on the monotonic clock; [due]
   equals [sent] in the closed loop. *)
type sample = {
  cls : cls;
  due : float;
  mutable sent : float;
  mutable recv : float;
  mutable reply : (Protocol.reply, string) result option;
}

(* The server-reported (queue_ms, exec_ms) of an ok reply. *)
let server_ms s =
  match s.reply with
  | Some (Ok (Protocol.Ok_reply { queue_ms; exec_ms; _ })) -> Some (queue_ms, exec_ms)
  | _ -> None

(* What went wrong with a request, or [None] for an ok reply carrying the
   expected digest. *)
let failure s =
  match s.reply with
  | None -> Some (Printf.sprintf "%s/%s: no reply" s.cls.bench s.cls.mode)
  | Some (Error m) -> Some (Printf.sprintf "%s/%s: bad reply (%s)" s.cls.bench s.cls.mode m)
  | Some (Ok (Protocol.Err_reply { kind; msg; _ })) ->
    Some
      (Printf.sprintf "%s/%s: %s %s" s.cls.bench s.cls.mode
         (Protocol.error_kind_name kind) msg)
  | Some (Ok (Protocol.Ok_reply { digest; _ })) ->
    if digest = s.cls.digest then None
    else Some (Printf.sprintf "%s/%s: digest mismatch" s.cls.bench s.cls.mode)

let ok_sample s = failure s = None

let request id c = Protocol.request ~id ~bench:c.bench ~mode:c.mode ~scale:c.scale ()

(* Waits for the server to answer one request of every class: the end of
   the serve part of set-up. *)
let ready s cls =
  let fd = connect s in
  let r = Protocol.reader fd in
  let samples =
    Array.mapi
      (fun id c ->
        let t = now () in
        let smp = { cls = c; due = t; sent = t; recv = nan; reply = None } in
        send fd (request id c);
        smp.reply <- Some (recv r);
        smp.recv <- now ();
        smp)
      cls
  in
  Unix.close fd;
  samples

(* [conns] callers that each wait for their reply before sending the next
   request, until [seconds] have passed.  Returns the samples and the
   elapsed time. *)
let closed_loop s cls ~rng ~conns ~seconds =
  let t_end = now () +. seconds in
  let out = Array.make conns [] in
  let errors = Atomic.make 0 in
  let caller k rng () =
    try
      let fd = connect s in
      let r = Protocol.reader fd in
      let id = ref 0 in
      while now () < t_end do
        let c = cls.(Rng.int rng (Array.length cls)) in
        let t = now () in
        let smp = { cls = c; due = t; sent = t; recv = nan; reply = None } in
        send fd (request !id c);
        smp.reply <- Some (recv r);
        smp.recv <- now ();
        out.(k) <- smp :: out.(k);
        incr id
      done;
      Unix.close fd
    with _ -> Atomic.incr errors
  in
  let t0 = now () in
  let threads = List.init conns (fun k -> Thread.create (caller k (Rng.split rng)) ()) in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  (Array.of_list (List.concat (Array.to_list out)), elapsed, Atomic.get errors)

(* Poisson arrivals at [rate] per second for [seconds], on one connection:
   a sender thread sends each request when it is due, whatever the replies
   are doing, and the calling thread reads the replies. *)
let open_loop s cls ~rng ~rate ~seconds =
  let offsets =
    let rec go t acc =
      let t = t -. (log (1. -. Rng.float rng 1.) /. rate) in
      if t >= seconds then List.rev acc else go t (t :: acc)
    in
    Array.of_list (go 0. [])
  in
  let fd = connect s in
  let r = Protocol.reader fd in
  let start = now () +. 0.005 in
  let samples =
    Array.map
      (fun off ->
        let c = cls.(Rng.int rng (Array.length cls)) in
        { cls = c; due = start +. off; sent = nan; recv = nan; reply = None })
      offsets
  in
  let n = Array.length samples in
  let sender () =
    try
      Array.iteri
        (fun id smp ->
          let wait = smp.due -. now () in
          if wait > 0. then Unix.sleepf wait;
          smp.sent <- now ();
          send fd (request id smp.cls))
        samples
    with _ -> ()
  in
  let th = Thread.create sender () in
  let rec read got =
    if got < n then
      match recv r with
      | Ok reply ->
        let id = Protocol.reply_id reply in
        if id >= 0 && id < n then begin
          samples.(id).recv <- now ();
          samples.(id).reply <- Some (Ok reply)
        end;
        read (got + 1)
      | Error _ -> ()
  in
  read 0;
  Thread.join th;
  Unix.close fd;
  samples

(* Round trips of the [health] verb, which bypasses admission and the pool:
   the transport floor. *)
let health_rtts s ~n =
  let fd = connect s in
  let r = Protocol.reader fd in
  let rtts =
    Array.init n (fun id ->
        let t0 = now () in
        match
          send fd (Protocol.health_request ~id);
          Protocol.read_frame r
        with
        | Some payload when payload <> "" -> (now () -. t0) *. 1e3
        | _ | (exception (Unix.Unix_error _ | Protocol.Malformed _)) -> infinity)
  in
  Unix.close fd;
  rtts
