(* rpb — command-line runner for the RPB benchmark suite.

   rpb list
   rpb patterns
   rpb run sa --input wiki --scale 3 --threads 4 --mode checked --repeats 3
   rpb run all --scale 1
   rpb stats --threads 4 --json stats.json --trace trace.json
   rpb check --seed 42 --json CHECK_report.json
   rpb profile --bench sort --threads 8 --json PROFILE_sort.json
   rpb report perf.json PROFILE_sort.json -o REPORT.html *)

open Cmdliner
open Rpb_benchmarks

(* Exit-code contract, uniform across subcommands (documented in the man
   page and README): 0 success; 2 usage error (bad flags, unknown
   benchmark, unreadable artifacts); 4 correctness/robustness
   violation (failed verification, oracle or fault-sweep violation, loadgen
   lost replies or digest mismatches).  3 belongs to the perf gate
   (scripts/perf_gate.sh); no subcommand returns it. *)
let exit_ok = 0
let exit_usage = 2
let exit_violation = 4

let mode_conv =
  Arg.conv
    ( (fun s ->
        match Mode.of_string s with
        | Some m -> Ok m
        | None -> Error (`Msg ("unknown mode " ^ s))),
      fun fmt m -> Format.pp_print_string fmt (Mode.name m) )

let run_one ~name ~input ~scale ~threads ~mode ~repeats ~seq =
  match Registry.find name with
  | None ->
    Printf.eprintf "unknown benchmark %s (try `rpb list`)\n" name;
    exit_usage
  | Some e ->
    let input =
      match input with
      | Some i when List.mem i e.Common.inputs -> i
      | Some i ->
        Printf.eprintf "warning: %s is not a standard input for %s (have: %s)\n"
          i name
          (String.concat ", " e.Common.inputs);
        i
      | None -> List.hd e.Common.inputs
    in
    match Rpb_pool.Pool.create ~num_workers:threads () with
    | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit_usage
    | pool ->
    Fun.protect ~finally:(fun () -> Rpb_pool.Pool.shutdown pool) @@ fun () ->
    Rpb_pool.Pool.run pool (fun () ->
        let prepared = e.Common.prepare pool ~input ~scale in
        let runner =
          if seq then prepared.Common.run_seq
          else fun () -> prepared.Common.run_par mode
        in
        runner ();
        (* warm-up *)
        let (), t = Rpb_prim.Timing.mean_of ~repeats runner in
        let ok = prepared.Common.verify () in
        Printf.printf
          "%-6s input=%s (%s) %s threads=%d scale=%d: %.4f s  [%s]\n" name input
          prepared.Common.size
          (if seq then "seq" else "mode=" ^ Mode.name mode)
          threads scale t
          (if ok then "verified" else "VERIFICATION FAILED");
        if ok then exit_ok else exit_violation)

let list_cmd =
  let doc = "List the 14 RPB benchmarks with their inputs and patterns." in
  let run () =
    Printf.printf "%-6s %-40s %-14s %-9s %s\n" "name" "description" "inputs"
      "dispatch" "patterns";
    List.iter
      (fun e ->
        Printf.printf "%-6s %-40s %-14s %-9s %s\n" e.Common.name e.Common.full_name
          (String.concat "," e.Common.inputs)
          (if e.Common.dynamic then "dynamic" else "static")
          (String.concat " "
             (List.map Rpb_core.Pattern.access_name e.Common.patterns)))
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* Fig. 3 of the paper: each pattern's share of the parallel-region access
   sites across RPB, in percent. *)
let paper_fig3 =
  Rpb_core.Pattern.
    [ (RO, 11.0); (Stride, 52.0); (Block, 3.0); (DandC, 5.0); (SngInd, 13.0);
      (RngInd, 7.0); (AW, 9.0) ]

let patterns_cmd =
  let doc =
    "Show the pattern taxonomy and fear spectrum (paper Table 3 / Fig. 2) and \
     the distribution of access sites against the paper's (Fig. 3)."
  in
  let run () =
    List.iter
      (fun p ->
        Printf.printf "%-7s %-55s %s\n"
          (Rpb_core.Pattern.access_name p)
          (Rpb_core.Pattern.expression p)
          (Rpb_core.Pattern.fear_name (Rpb_core.Pattern.safety p)))
      Rpb_core.Pattern.all_accesses;
    Printf.printf "\nFig. 3: distribution of access patterns (ours vs paper)\n";
    Printf.printf "%-8s %8s %8s %8s\n" "pattern" "sites" "ours(%)" "paper(%)";
    let irregular =
      List.fold_left
        (fun acc (p, c, pct) ->
          Printf.printf "%-8s %8d %8.1f %8.1f\n"
            (Rpb_core.Pattern.access_name p)
            c pct (List.assoc p paper_fig3);
          match p with
          | Rpb_core.Pattern.SngInd | RngInd | AW -> acc +. pct
          | _ -> acc)
        0.0
        (Registry.access_distribution ())
    in
    Printf.printf "irregular share (SngInd+RngInd+AW): ours %.1f%%, paper 29%%\n"
      irregular
  in
  Cmd.v (Cmd.info "patterns" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run a benchmark (or `all`) and verify its output." in
  let bench_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc:"benchmark name or `all`")
  in
  let input =
    Arg.(value & opt (some string) None & info [ "input"; "i" ] ~docv:"INPUT")
  in
  let scale = Arg.(value & opt int 2 & info [ "scale"; "s" ] ~docv:"N") in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let repeats = Arg.(value & opt int 3 & info [ "repeats"; "r" ] ~docv:"R") in
  let seq = Arg.(value & flag & info [ "seq" ] ~doc:"run the sequential baseline") in
  let mode =
    Arg.(value & opt mode_conv Mode.Unsafe
         & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"unsafe | checked | sync")
  in
  let run name input scale threads mode repeats seq =
    let names = if name = "all" then Registry.names else [ name ] in
    let code =
      List.fold_left
        (fun acc n ->
          max acc (run_one ~name:n ~input ~scale ~threads ~mode ~repeats ~seq))
        0 names
    in
    exit code
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ bench_arg $ input $ scale $ threads $ mode $ repeats $ seq)

(* A deliberately steal-heavy synthetic workload: fine-grained fork-join
   leaves plus an unbalanced recursive join, so every per-worker counter
   (tasks, steals, idle waits, deque depth) moves at num_workers > 1. *)
let stats_workload pool ~tasks ~work =
  let sink = Atomic.make 0 in
  let spin k =
    let acc = ref 0 in
    for i = 1 to k do
      acc := !acc + (i * i)
    done;
    Atomic.fetch_and_add sink !acc |> ignore
  in
  Rpb_pool.Pool.run pool (fun () ->
      Rpb_pool.Pool.parallel_for ~grain:1 ~start:0 ~finish:tasks
        ~body:(fun _ -> spin work)
        pool;
      let rec unbalanced n =
        if n <= 1 then 1
        else
          let a, b =
            Rpb_pool.Pool.join pool
              (fun () -> unbalanced (n - 1))
              (fun () ->
                spin (work / 4);
                1)
          in
          a + b
      in
      ignore (unbalanced 64);
      ignore
        (Rpb_pool.Pool.parallel_for_reduce ~grain:16 ~start:0 ~finish:(tasks * 8)
           ~body:Fun.id ~combine:( + ) ~init:0 pool))

let stats_run ~threads ~tasks ~work ~json ~trace =
  let module Pool = Rpb_pool.Pool in
  let pool = Pool.create ~num_workers:threads () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  if trace <> None then Pool.Recorder.start ();
  let before = Pool.Stats.capture pool in
  let (), elapsed =
    Rpb_prim.Timing.time (fun () ->
        Pool.Recorder.with_root (fun () -> stats_workload pool ~tasks ~work))
  in
  let after = Pool.Stats.capture pool in
  let s = Pool.Stats.diff ~before ~after in
  Printf.printf "synthetic workload: %d leaf tasks, %.4f s\n%s\n" tasks elapsed
    (Pool.Stats.to_string s);
  (match trace with
   | None -> ()
   | Some path ->
     let n = Rpb_obs.Profile.write_chrome path (Pool.Recorder.stop ()) in
     Printf.printf "wrote %d trace events to %s (chrome://tracing format)\n" n
       path);
  (match json with
   | None -> ()
   | Some path ->
     let record =
       {
         Bench_json.bench = "stats-workload";
         input = "synthetic";
         mode = "unsafe";
         scale = 0;
         threads;
         repeats = 1;
         mean_ns = elapsed *. 1e9;
         min_ns = elapsed *. 1e9;
         samples_ns = [| elapsed *. 1e9 |];
         smoke = false;
         verified = true;
         workers = Bench_json.workers_of_pool_stats s;
       }
     in
     Bench_json.write_doc ~path
       ~meta:[ ("generator", Bench_json.Str "rpb-stats") ]
       [ record ];
     Printf.printf "wrote telemetry record to %s\n" path);
  exit_ok

let stats_cmd =
  let doc =
    "Run a steal-heavy synthetic workload and report per-worker scheduler \
     telemetry (Pool.Stats), optionally as JSON and/or a Chrome trace of \
     the flight recorder's events."
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let tasks =
    Arg.(value & opt int 512 & info [ "tasks" ] ~docv:"N" ~doc:"leaf task count")
  in
  let work =
    Arg.(value & opt int 20_000 & info [ "work" ] ~docv:"K" ~doc:"spin per leaf")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"write a Bench_json document")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"record the run with the flight recorder and write its \
                   work, phase and idle events as Chrome-trace JSON")
  in
  let run threads tasks work json trace =
    exit
      (try stats_run ~threads ~tasks ~work ~json ~trace
       with Invalid_argument msg | Sys_error msg ->
         Printf.eprintf "stats: %s\n" msg;
         exit_usage)
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ threads $ tasks $ work $ json $ trace)

let check_run ~seed ~bench ~threads ~scale ~json =
  match Rpb_check.Oracle.run ?bench ~threads ~scale ~seed () with
  | report ->
    print_string (Rpb_check.Oracle.summary report);
    (match json with
     | None -> ()
     | Some path ->
       Rpb_check.Oracle.write_json ~path report;
       Printf.printf "wrote check report to %s\n" path);
    if Rpb_check.Oracle.ok report then exit_ok else exit_violation
  | exception Invalid_argument msg ->
    Printf.eprintf "%s (try `rpb list`)\n" msg;
    exit_usage

let check_cmd =
  let doc =
    "Differential oracle + shadow-array self-check: run every benchmark \
     under the deterministic sequential executor (in-order and seeded \
     shuffled) and the work-stealing pool, diff output digests element-wise \
     against the sequential baseline, and verify the dynamic race detector \
     reports zero races on valid inputs while catching an injected \
     duplicate offset."
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"seed for schedules and inputs")
  in
  let bench =
    Arg.(value & opt (some string) None
         & info [ "bench"; "b" ] ~docv:"BENCH"
             ~doc:"restrict to one benchmark (default: all)")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"S") in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"write the machine-readable report")
  in
  let run seed bench threads scale json =
    exit (check_run ~seed ~bench ~threads ~scale ~json)
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ seed $ bench $ threads $ scale $ json)

let faults_run ~seed ~bench ~threads ~scale ~deadline ~json =
  match
    Rpb_check.Oracle.fault_sweep ?bench ~threads ~scale ~deadline ~seed ()
  with
  | report ->
    print_string (Rpb_check.Oracle.fault_summary report);
    (match json with
     | None -> ()
     | Some path ->
       Rpb_check.Oracle.write_fault_json ~path report;
       Printf.printf "wrote fault report to %s\n" path);
    if Rpb_check.Oracle.fault_ok report then exit_ok else exit_violation
  | exception Invalid_argument msg ->
    Printf.eprintf "%s (try `rpb list`)\n" msg;
    exit_usage

let faults_cmd =
  let doc =
    "Seeded fault-injection sweep: run every benchmark under Pool.Fault \
     schedules (injected task exceptions, steal delays, worker stalls, \
     spawn failures) and assert the failure-semantics contract — each run \
     either completes with the correct canonical digest or raises a clean \
     structured error within the deadline, never hangs, never returns a \
     torn result, and leaves the pool reusable."
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"seed for the fault schedules")
  in
  let bench =
    Arg.(value & opt (some string) None
         & info [ "bench"; "b" ] ~docv:"BENCH"
             ~doc:"restrict to one benchmark (default: all)")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"S") in
  let deadline =
    Arg.(value & opt float 30.
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"per-run watchdog deadline (Pool.Stalled past it)")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"write the machine-readable report")
  in
  let run seed bench threads scale deadline json =
    exit (faults_run ~seed ~bench ~threads ~scale ~deadline ~json)
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(const run $ seed $ bench $ threads $ scale $ deadline $ json)

let profile_run ~bench ~input ~mode ~threads ~scale ~seed ~json =
  match
    Rpb_obs.Profile.profile ?input ~mode ~bench ~threads ~scale ~seed ()
  with
  | r ->
    print_string (Rpb_obs.Profile.summary r);
    let write path =
      Rpb_obs.Profile.write_json ~path r;
      Printf.printf "\nwrote profile document to %s\n" path
    in
    (match Option.iter write json with
     | () -> if r.Rpb_obs.Profile.verified then exit_ok else exit_violation
     | exception Sys_error msg ->
       Printf.eprintf "profile: %s\n" msg;
       exit_usage)
  | exception Invalid_argument msg ->
    Printf.eprintf "%s (try `rpb list`)\n" msg;
    exit_usage

let profile_cmd =
  let doc =
    "Work/span profiler: run one benchmark under the scheduler flight \
     recorder and report work (T1), span (Tinf), parallelism, burdened \
     parallelism, leaf-task granularity, per-phase and per-worker \
     breakdowns, and the predicted 1..P speedup curve."
  in
  let bench =
    Arg.(value & opt string "sort"
         & info [ "bench"; "b" ] ~docv:"BENCH" ~doc:"benchmark to profile")
  in
  let input =
    Arg.(value & opt (some string) None & info [ "input"; "i" ] ~docv:"INPUT")
  in
  let mode =
    Arg.(value & opt mode_conv Mode.Unsafe
         & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"unsafe | checked | sync")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"S") in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"recorded in the profile metadata")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the schema_version=2 profile document")
  in
  let run bench input mode threads scale seed json =
    exit (profile_run ~bench ~input ~mode ~threads ~scale ~seed ~json)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ bench $ input $ mode $ threads $ scale $ seed $ json)

(* ---- serve / loadgen: the fault-tolerant request server ---- *)

let default_socket () =
  Printf.sprintf "%s/rpb-serve-%d.sock"
    (Filename.get_temp_dir_name ())
    (Unix.getpid ())

(* "bench", "bench:input", "bench:input:scale" ("" input = default). *)
let parse_preload spec =
  match String.split_on_char ':' spec with
  | [ b ] -> Ok (b, None, 0)
  | [ b; i ] -> Ok (b, (if i = "" then None else Some i), 0)
  | [ b; i; s ] -> (
    match int_of_string_opt s with
    | Some scale -> Ok (b, (if i = "" then None else Some i), scale)
    | None -> Error (Printf.sprintf "bad preload scale in %S" spec))
  | _ -> Error (Printf.sprintf "bad preload spec %S (BENCH[:INPUT[:SCALE]])" spec)

let parse_preloads specs =
  List.fold_left
    (fun acc spec ->
      match (acc, parse_preload spec) with
      | Error e, _ -> Error e
      | _, Error e -> Error e
      | Ok l, Ok p -> Ok (l @ [ p ]))
    (Ok []) specs

let serve_run ~socket ~threads ~max_queue ~drain_grace ~scale_cap ~preload
    ~json ~quiet ~metrics_json ~metrics_interval ~slow_log ~slow_pctl =
  let module Serve = Rpb_serve.Serve in
  let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "serve: %s\n" m) fmt in
  if metrics_interval <= 0. then begin
    usage "--metrics-interval must be > 0 (got %g)" metrics_interval;
    exit_usage
  end
  else if slow_pctl <= 0. || slow_pctl > 100. then begin
    usage "--slow-pctl must be in (0, 100] (got %g)" slow_pctl;
    exit_usage
  end
  else
  match parse_preloads preload with
  | Error msg ->
    Printf.eprintf "serve: %s\n" msg;
    exit_usage
  | Ok preload -> (
    let cfg =
      {
        Serve.socket_path = socket;
        threads;
        max_queue;
        drain_grace_s = drain_grace;
        scale_cap;
        preload;
        json_path = json;
        quiet;
        metrics_path = metrics_json;
        metrics_interval_s = metrics_interval;
        slow_log;
        slow_pctl;
      }
    in
    match Serve.start cfg with
    | Error msg ->
      Printf.eprintf "serve: %s\n" msg;
      exit_usage
    | Ok t ->
      let stop_flag = Atomic.make false in
      let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_flag true) in
      (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
      if not quiet then
        Printf.eprintf "serve: SIGINT/SIGTERM drains and exits\n%!";
      while not (Atomic.get stop_flag) do
        try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Serve.stop t;
      exit_ok)

let serve_cmd =
  let doc =
    "Serve benchmark jobs over a Unix-domain socket: one shared \
     work-stealing pool, a bounded admission queue \
     with overload shedding, per-request deadlines on the shared timer \
     wheel, cooperative cancellation on client disconnect, and graceful \
     drain on SIGTERM/SIGINT.  Structured error replies (overloaded, \
     stalled, cancelled, malformed, ...) never kill the process or poison \
     a pool."
  in
  let socket =
    Arg.(value & opt string (default_socket ())
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")
  in
  let threads =
    Arg.(value & opt int 4
         & info [ "threads"; "t" ] ~docv:"P" ~doc:"pool workers")
  in
  let max_queue =
    Arg.(value & opt int 16
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"admission bound on queued + in-flight requests; past it, \
                   requests are shed with an overloaded reply and a \
                   retry-after hint")
  in
  let drain_grace =
    Arg.(value & opt float 2.0
         & info [ "drain-grace" ] ~docv:"SECONDS"
             ~doc:"how long drain lets the in-flight request finish before \
                   cancelling it")
  in
  let scale_cap =
    Arg.(value & opt int 6
         & info [ "scale-cap" ] ~docv:"S" ~doc:"reject requests above this \
                                                scale")
  in
  let preload =
    Arg.(value & opt_all string []
         & info [ "preload" ] ~docv:"BENCH[:INPUT[:SCALE]]"
             ~doc:"prepare an instance at startup (repeatable)")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the kind=serve stats artifact at drain")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ]) in
  let metrics_json =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"append one kind=metrics snapshot per interval as JSONL \
                   (feeds the report dashboard's live-metrics section)")
  in
  let metrics_interval =
    Arg.(value & opt float 1.0
         & info [ "metrics-interval" ] ~docv:"SECONDS"
             ~doc:"snapshot period for $(b,--metrics-json)")
  in
  let slow_log =
    Arg.(value & opt int 8
         & info [ "slow-log" ] ~docv:"N"
             ~doc:"keep the N slowest-request scheduler profiles (0 \
                   disables the slow-request log)")
  in
  let slow_pctl =
    Arg.(value & opt float 99.0
         & info [ "slow-pctl" ] ~docv:"P"
             ~doc:"exec-time percentile a request must clear to be logged \
                   as slow")
  in
  let run socket threads max_queue drain_grace scale_cap preload json quiet
      metrics_json metrics_interval slow_log slow_pctl =
    exit
      (serve_run ~socket ~threads ~max_queue ~drain_grace ~scale_cap ~preload
         ~json ~quiet ~metrics_json ~metrics_interval ~slow_log ~slow_pctl)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket $ threads $ max_queue $ drain_grace $ scale_cap
          $ preload $ json $ quiet $ metrics_json $ metrics_interval $ slow_log
          $ slow_pctl)

let loadgen_run ~socket ~clients ~requests ~seed ~mean_gap_ms ~benches ~mode
    ~scale ~deadline_ms ~spin_ms ~burst ~kill_every ~max_retries
    ~backoff_base_ms ~backoff_cap_ms ~wait_cap_s ~json =
  let module Loadgen = Rpb_serve.Loadgen in
  let cfg =
    {
      Loadgen.socket_path = socket;
      clients;
      requests_per_client = requests;
      seed;
      mean_gap_ms;
      benches;
      mode;
      scale;
      deadline_ms;
      spin_ms;
      burst;
      kill_every;
      max_retries;
      backoff_base_ms;
      backoff_cap_ms;
      wait_cap_s;
      json_path = json;
    }
  in
  match Loadgen.run cfg with
  | Error msg ->
    Printf.eprintf "loadgen: %s\n" msg;
    exit_usage
  | Ok r ->
    List.iter print_endline (Loadgen.summary_lines r);
    (match json with
     | Some path -> Printf.printf "wrote loadgen artifact to %s\n" path
     | None -> ());
    let violated =
      r.Loadgen.lost > 0
      || r.Loadgen.protocol_errors > 0
      || r.Loadgen.digest_mismatches > 0
      || Loadgen.accounted r <> r.Loadgen.sent
      || r.Loadgen.ok = 0
    in
    if violated then begin
      Printf.eprintf
        "loadgen: robustness violation (lost=%d proto_err=%d \
         digest_mismatch=%d accounted=%d sent=%d ok=%d)\n"
        r.Loadgen.lost r.Loadgen.protocol_errors
        r.Loadgen.digest_mismatches (Loadgen.accounted r) r.Loadgen.sent
        r.Loadgen.ok;
      exit_violation
    end
    else exit_ok

let loadgen_cmd =
  let doc =
    "Drive an rpb server with seeded open-loop load: multiple client \
     connections, exponential arrivals, jittered exponential retry/backoff \
     on overload sheds, optional kill/reconnect chaos, and a latency \
     percentile report.  Exits 4 when any reply is lost, duplicated, \
     malformed, or carries a digest that disagrees with another run of the \
     same instance."
  in
  let socket =
    Arg.(value & opt string (default_socket ())
         & info [ "socket" ] ~docv:"PATH" ~doc:"server socket path")
  in
  let clients = Arg.(value & opt int 4 & info [ "clients"; "c" ] ~docv:"N") in
  let requests =
    Arg.(value & opt int 16
         & info [ "requests"; "n" ] ~docv:"N" ~doc:"requests per client")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let mean_gap_ms =
    Arg.(value & opt int 10
         & info [ "mean-gap-ms" ] ~docv:"MS"
             ~doc:"mean exponential inter-arrival gap per client")
  in
  let benches =
    Arg.(value & opt_all (list string) [ [ "hist" ] ]
         & info [ "bench"; "b" ] ~docv:"BENCH,.."
             ~doc:"benchmark mix, cycled per request (`spin` allowed)")
  in
  let mode =
    Arg.(value & opt mode_conv Mode.Unsafe
         & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"unsafe | checked | sync")
  in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"S") in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS" ~doc:"per-request deadline")
  in
  let spin_ms =
    Arg.(value & opt int 20
         & info [ "spin-ms" ] ~docv:"MS" ~doc:"busy work per `spin` request")
  in
  let burst =
    Arg.(value & opt int 0
         & info [ "burst" ] ~docv:"N"
             ~doc:"client 0 fires $(docv) back-to-back spin requests at \
                   start (forces overload sheds)")
  in
  let kill_every =
    Arg.(value & opt int 0
         & info [ "kill-every" ] ~docv:"K"
             ~doc:"chaos: clients abruptly close and reconnect after every \
                   $(docv)-th send (0 = off)")
  in
  let max_retries =
    Arg.(value & opt int 5 & info [ "max-retries" ] ~docv:"N")
  in
  let backoff_base_ms =
    Arg.(value & opt int 5 & info [ "backoff-base-ms" ] ~docv:"MS")
  in
  let backoff_cap_ms =
    Arg.(value & opt int 200 & info [ "backoff-cap-ms" ] ~docv:"MS")
  in
  let wait_cap_s =
    Arg.(value & opt float 15.0
         & info [ "wait-cap-s" ] ~docv:"S"
             ~doc:"max wait for stragglers after the last send before \
                   declaring replies lost")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the kind=serve loadgen artifact (latency \
                   percentiles; feeds `rpb report`)")
  in
  let run socket clients requests seed mean_gap_ms benches mode scale
      deadline_ms spin_ms burst kill_every max_retries backoff_base_ms
      backoff_cap_ms wait_cap_s json =
    exit
      (loadgen_run ~socket ~clients ~requests ~seed ~mean_gap_ms
         ~benches:(List.concat benches) ~mode:(Mode.name mode) ~scale
         ~deadline_ms ~spin_ms ~burst ~kill_every ~max_retries
         ~backoff_base_ms ~backoff_cap_ms ~wait_cap_s ~json)
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(const run $ socket $ clients $ requests $ seed $ mean_gap_ms
          $ benches $ mode $ scale $ deadline_ms $ spin_ms $ burst $ kill_every
          $ max_retries $ backoff_base_ms $ backoff_cap_ms $ wait_cap_s $ json)

(* ---- top: live metrics view over a running server ---- *)

let top_cmd =
  let doc =
    "Watch a running rpb server's live metrics: each refresh sends a \
     verb=stats request over the serve socket and renders throughput, \
     queue/exec/total latency percentiles (recomputed from the snapshot's \
     log2 histogram buckets), worker and steal rates, GC pause \
     percentiles, and the slow-request log counter.  With $(b,--check), \
     asserts the snapshot invariants instead of rendering (counters \
     monotone, histogram totals reconciling with the status counters) and \
     exits 4 on a violation — the CI serve-smoke contract."
  in
  let socket =
    Arg.(value & opt string (default_socket ())
         & info [ "socket" ] ~docv:"PATH" ~doc:"server socket path")
  in
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"refresh period")
  in
  let iterations =
    Arg.(value & opt int 0
         & info [ "iterations"; "n" ] ~docv:"N"
             ~doc:"stop after N refreshes (0 = until the server goes away)")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"assert snapshot invariants instead of rendering")
  in
  let run socket interval iterations check =
    exit
      (Rpb_serve.Top.run ~socket_path:socket ~interval_s:interval ~iterations
         ~check)
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ socket $ interval $ iterations $ check)

let report_run ~files ~out ~md =
  let a = Rpb_obs.Report.load_files files in
  List.iter
    (fun (path, msg) -> Printf.eprintf "report: skipping %s: %s\n" path msg)
    a.Rpb_obs.Report.errors;
  if a.Rpb_obs.Report.sources = [] then begin
    Printf.eprintf "report: no artifact parsed\n";
    exit_usage
  end
  else begin
    Rpb_obs.Report.write_html ~path:out a;
    Printf.printf "wrote %s (%s)\n" out (Rpb_obs.Report.summary a);
    (match md with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc (Rpb_obs.Report.to_markdown a));
       Printf.printf "wrote %s\n" path);
    exit_ok
  end

let report_cmd =
  let doc =
    "Merge bench/perf, PROFILE, CHECK, FAULT, serve and metrics JSON \
     artifacts into one self-contained HTML dashboard: the paper's Table 1 \
     / Fig. 4 and Fig. 5 ratios per benchmark, work/span/parallelism, \
     correctness and fault verdicts, serving latency and live metrics."
  in
  let files =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"FILE" ~doc:"artifact JSON files, any mix of kinds")
  in
  let out =
    Arg.(value & opt string "REPORT.html"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"HTML output path")
  in
  let md =
    Arg.(value & opt (some string) None
         & info [ "md" ] ~docv:"FILE"
             ~doc:"also write a markdown digest (CI job summaries)")
  in
  let run files out md = exit (report_run ~files ~out ~md) in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ files $ out $ md)

let () =
  let doc = "Rust Parallel Benchmarks (RPB), reproduced in OCaml" in
  let exits =
    [
      Cmd.Exit.info exit_ok ~doc:"on success.";
      Cmd.Exit.info exit_usage
        ~doc:"on usage errors: unknown flags, benchmarks, modes or \
              inputs, unparseable artifacts.";
      Cmd.Exit.info exit_violation
        ~doc:"when a correctness, fault or robustness check is violated \
              (failed verification, lost or mismatched replies).";
    ]
  in
  let info = Cmd.info "rpb" ~doc ~exits in
  let code =
    Cmd.eval
      (Cmd.group info
         [ list_cmd; patterns_cmd; run_cmd; stats_cmd; check_cmd; faults_cmd;
           profile_cmd; serve_cmd; loadgen_cmd; top_cmd; report_cmd ])
  in
  (* cmdliner reports its own usage errors as 124; fold them into the
     documented usage code so every surface agrees. *)
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
