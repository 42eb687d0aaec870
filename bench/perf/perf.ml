(* The repo benchmark.  See README.md for the metrics, the workloads and why
   they were chosen.

     perf.exe WORKLOAD [--seed N] [--seconds S] [--trace 0|1|FILE]
              [--json FILE] [--quick]
     perf.exe agree DIR_A DIR_B
     perf.exe smoke BENCHMARK.json

   A run prints every metric by name and unit, then, as its last line, one
   JSON object: the end-to-end metrics, or with tracing on the per-layer
   ones.  It exits 4 when any output was wrong. *)

module Pool = Rpb_pool.Pool
module Rng = Rpb_prim.Rng
module Stats = Rpb_obs.Stats
module J = Rpb_benchmarks.Bench_json

let now = Rpb_prim.Timing.now

(* Batch workloads run at P = 2: the suites are sized for a 2-core
   machine.  More workers than the host's cores marks the run
   host_ok=false. *)
let p = 2

let exit_usage = 2
let exit_disagree = 3
let exit_incorrect = 4

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

type outcome = {
  workload : Workloads.t;
  seed : int;
  traced : bool;
  e2e : metric list;
  layer : metric list;
  attempted : int;
  failed : int;
  problems : string list;
  meta : (string * J.json) list;
  benches : Batch.bench_result list;
  spans : Span.t list;
}

(* ------------------------------------------------------------------ *)
(* Run metadata *)

let read_file f =
  try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
  with Sys_error _ -> None

(* The commit, read from .git without running git; "unknown" outside a
   git checkout. *)
let git_sha () =
  match read_file ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
    let r = String.sub h 5 (String.length h - 5) in
    match read_file (".git/" ^ r) with
    | Some sha -> sha
    | None ->
      Option.value ~default:"unknown"
        (Option.bind (read_file ".git/packed-refs") (fun packed ->
             List.find_map
               (fun line ->
                 match String.split_on_char ' ' line with
                 | [ sha; r' ] when r' = r -> Some sha
                 | _ -> None)
               (String.split_on_char '\n' packed))))
  | Some sha when sha <> "" -> sha
  | _ -> "unknown"

(* Run files go under bench/perf/_out when run from the repo root, and
   under _out elsewhere (the dune smoke test runs inside _build). *)
let out_dir () =
  let d = if Sys.file_exists "bench/perf" then "bench/perf/_out" else "_out" in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* One run *)

let percentile a pct =
  let s = Array.copy a in
  Array.sort compare s;
  Stats.percentile_sorted s pct

(* Turns the serve loops' samples into request spans under the current
   span: [loadgen.late] (open loop only), [serve.queue] and [serve.exec]
   as children, so a request's self time is [serve.other]. *)
let request_spans samples =
  let ns t = int_of_float (t *. 1e9) in
  Array.iter
    (fun (s : Load.sample) ->
      match Load.server_ms s with
      | Some (queue_ms, exec_ms) ->
        let id = Span.add "request" ~start_ns:(ns s.due) ~end_ns:(ns s.recv) in
        if s.sent > s.due then
          ignore (Span.add ~parent:id "loadgen.late" ~start_ns:(ns s.due) ~end_ns:(ns s.sent));
        let q_end = s.sent +. (queue_ms /. 1e3) in
        ignore (Span.add ~parent:id "serve.queue" ~start_ns:(ns s.sent) ~end_ns:(ns q_end));
        ignore
          (Span.add ~parent:id "serve.exec" ~start_ns:(ns q_end)
             ~end_ns:(ns (q_end +. (exec_ms /. 1e3))))
      | None -> ())
    samples

(* Per-layer metrics of the batch phase. *)
let batch_layer add (batch : Batch.result) =
  let c = batch.counters in
  let per_run x = x /. float_of_int (max 1 c.tp_runs) in
  let count x = per_run (float_of_int x) in
  add "pool.tasks_per_run" (count c.tasks) "count";
  add "pool.steals_ok_per_run" (count c.steals_ok) "count";
  add "pool.steals_failed_per_run" (count c.steals_failed) "count";
  add "pool.steal_success"
    (let tries = c.steals_ok + c.steals_failed in
     if tries = 0 then 0. else float_of_int c.steals_ok /. float_of_int tries)
    "fraction";
  add "pool.idle_per_run" (count c.idle) "count";
  add "gc.minor_per_run" (count c.minor) "count";
  add "gc.minor_words_per_run" (per_run c.minor_words) "words";
  add "gc.major_words_per_run" (per_run c.major_words) "words";
  List.iter
    (fun cfg ->
      add
        (Printf.sprintf "benchmarks.%s_ms" (Batch.config_name cfg))
        (Batch.geomean (List.map (fun b -> Batch.median_ms b cfg) batch.benches))
        "ms")
    Batch.configs

(* The traced run's microbenchmarks of the pool, MultiQueue and scatter
   layers; [quick] shrinks them tenfold. *)
let micro_layer add check (env : Batch.env) ~rng ~quick =
  let k = if quick then 10 else 1 in
  add "pool.run_empty_us.p1" (Micro.pool_run_empty_us env.p1 ~n:(20_000 / k)) "us";
  add "pool.run_empty_us.p2" (Micro.pool_run_empty_us env.pp ~n:(20_000 / k)) "us";
  add "pool.join_ns.p1" (Micro.pool_join_ns env.p1 ~n:(100_000 / k)) "ns";
  add "pool.join_ns.p2" (Micro.pool_join_ns env.pp ~n:(100_000 / k)) "ns";
  add "pool.pfor_grain1_ns.p2" (Micro.pool_pfor_grain1_ns env.pp ~n:(200_000 / k)) "ns";
  add "mq.run_empty_us.p2" (Micro.mq_run_empty_us ~p ~n:((40 / k) + 1)) "us";
  add "mq.push_pop_ns" (Micro.mq_push_pop_ns ~rng ~n:(100_000 / k)) "ns";
  List.iter
    (fun (mode, ms, ok) ->
      check ok ("core.scatter " ^ mode ^ " wrote a wrong output");
      add ("core.scatter_" ^ mode ^ "_ms") ms "ms")
    (Micro.scatter_ms env.pp ~rng ~n:((1 lsl 20) / k) ~reps:(if quick then 1 else 5))

(* The serve phase's metrics.  The end-to-end two are ratios to the
   server's own [Pool.run] time of the same requests: on a shared host
   whose speed drifts between runs, that pairing cancels the drift, as
   Tseq does for the batch ratios.  Returns (cost_over_exec,
   p50_over_exec). *)
let serve_metrics add ~(closed : Load.sample array) ~(opened : Load.sample array) ~elapsed
    ~health =
  let exec_ms s = match Load.server_ms s with Some (_, e) -> e | None -> nan in
  let ok_open = Array.of_list (List.filter Load.ok_sample (Array.to_list opened)) in
  let ok_closed = Array.of_list (List.filter Load.ok_sample (Array.to_list closed)) in
  (* A failed or lost request counts as +inf, beyond every limit.  Each
     latency is taken from when the request was due. *)
  let latency f =
    Array.map
      (fun (s : Load.sample) ->
        if Load.ok_sample s then f ((s.recv -. s.due) *. 1e3) s else infinity)
      opened
  in
  let lat_ms = latency (fun ms _ -> ms) in
  let lat_over_exec = latency (fun ms s -> ms /. exec_ms s) in
  if ok_open <> [||] then begin
    let part f = Array.map f ok_open in
    let queue = part (fun s -> fst (Option.get (Load.server_ms s))) in
    let exec = part exec_ms in
    let other =
      part (fun s ->
          let q, e = Option.get (Load.server_ms s) in
          ((s.recv -. s.sent) *. 1e3) -. q -. e)
    in
    let late = part (fun s -> (s.sent -. s.due) *. 1e3) in
    List.iter
      (fun (name, a) ->
        add (name ^ ".p50") (percentile a 50.) "ms";
        add (name ^ ".p99") (percentile a 99.) "ms")
      [ ("serve.queue_ms", queue); ("serve.exec_ms", exec); ("serve.other_ms", other) ];
    add "loadgen.late_ms.p99" (percentile late 99.) "ms"
  end;
  let rps = float_of_int (Array.length ok_closed) /. elapsed in
  add "serve.rps" rps "req/s";
  add "serve.rtt_ms.p50" (percentile lat_ms 50.) "ms";
  add "serve.rtt_ms.p95" (percentile lat_ms 95.) "ms";
  add "serve.rtt_ms.p99" (percentile lat_ms 99.) "ms";
  add "serve.p95_over_exec" (percentile lat_over_exec 95.) "ratio";
  add "serve.samples" (float_of_int (Array.length opened)) "count";
  add "protocol.health_rtt_ms.p50" (percentile health 50.) "ms";
  let cost_over_exec =
    if ok_closed = [||] then infinity else 1e3 /. rps /. Stats.mean (Array.map exec_ms ok_closed)
  in
  (cost_over_exec, percentile lat_over_exec 50.)

let run_workload (wl : Workloads.t) ~seed ~seconds ~quick ~traced =
  let rng = Rng.create seed in
  let rng_batch = Rng.split rng and rng_serve = Rng.split rng and rng_micro = Rng.split rng in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let check ok msg =
    incr attempted;
    if not ok then begin
      incr failed;
      problems := msg :: !problems
    end
  in
  let check_samples =
    Array.iter (fun s ->
        match Load.failure s with None -> check true "" | Some what -> check false what)
  in
  let layer = ref [] in
  let add name value unit = layer := m name value unit :: !layer in
  let host_eff = Micro.par_efficiency ~p ~iters:(if quick then 1_000_000 else 20_000_000) in
  let nproc = Domain.recommended_domain_count () in
  let host_ok = host_eff >= 0.8 && p <= nproc in
  let span_ns = if traced then Micro.span_ns ~n:20_000 else 0. in
  if traced then Span.start ();
  let t_run = now () in
  let e2e, benches =
    Span.with_ ("workload:" ^ wl.name) @@ fun () ->
    let cls, verify_ms = Load.classes wl.mix in
    add "benchmarks.verify_ms" verify_ms "ms";
    let preload = List.sort_uniq compare (List.map (fun (b, _, s) -> (b, s)) wl.mix) in
    let suite = if quick then List.map (fun (b, _) -> (b, 0)) wl.suite else wl.suite in
    (* Set-up: both pools, every prepare, and the server up to its first ok
       reply for every request class.  Repeated, and the median kept, so
       that work moved into set-up shows; the last one is used. *)
    let setup k =
      Span.with_ "setup" @@ fun () ->
      let t0 = now () in
      let env = Batch.setup ~p suite in
      let t1 = now () in
      let socket =
        Filename.concat (out_dir ()) (Printf.sprintf "srv-%d-%d.sock" (Unix.getpid ()) k)
      in
      let srv = Load.spawn ~socket ~preload in
      check_samples (Span.with_ "serve.ready" (fun () -> Load.ready srv cls));
      (env, srv, t1 -. t0, now () -. t0)
    in
    let reps = if quick then 1 else 3 in
    let rec setups k =
      let ((env, srv, _, _) as s) = setup k in
      if k + 1 = reps then [ s ]
      else begin
        Load.stop srv;
        Batch.teardown env;
        s :: setups (k + 1)
      end
    in
    let all = setups 0 in
    let env, srv, _, _ = List.nth all (reps - 1) in
    let med f = Stats.median (Array.of_list (List.map f all)) in
    let setup_s = med (fun (_, _, _, total) -> total) in
    add "serve.ready_s" (med (fun (_, _, batch, total) -> total -. batch)) "s";
    add "benchmarks.prepare_s" (med (fun (e, _, _, _) -> e.Batch.prepare_s)) "s";
    add "pool.create_ms" (1e3 *. med (fun (e, _, _, _) -> e.Batch.create_s)) "ms";
    let min_rounds, max_rounds = if quick then (1, 1) else (3, 2001) in
    let batch =
      Span.with_ "batch" (fun () ->
          Batch.measure env ~rng:rng_batch ~budget_s:(0.70 *. seconds) ~min_rounds ~max_rounds)
    in
    List.iter (fun (ok, what) -> check ok what) (Batch.verify env);
    batch_layer add batch;
    if traced then Span.with_ "micro" (fun () -> micro_layer add check env ~rng:rng_micro ~quick);
    Batch.teardown env;
    let closed, elapsed, conn_errors =
      Span.with_ "serve.closed" (fun () ->
          let ((smp, _, _) as r) =
            Load.closed_loop srv cls ~rng:(Rng.split rng_serve) ~conns:p
              ~seconds:(if quick then 0.3 else 0.10 *. seconds)
          in
          request_spans smp;
          r)
    in
    check_samples closed;
    check (conn_errors = 0) "closed loop: a connection failed";
    let opened =
      Span.with_ "serve.open" (fun () ->
          let smp =
            Load.open_loop srv cls ~rng:(Rng.split rng_serve) ~rate:wl.rate
              ~seconds:(if quick then 0.5 else 0.20 *. seconds)
          in
          request_spans smp;
          smp)
    in
    check_samples opened;
    let health = Span.with_ "serve.health" (fun () -> Load.health_rtts srv ~n:50) in
    Array.iter (fun ms -> check (Float.is_finite ms) "health: no reply") health;
    Load.stop srv;
    let cost_over_exec, p50_over_exec = serve_metrics add ~closed ~opened ~elapsed ~health in
    let geo f = Batch.geomean (List.map f batch.benches) in
    ( [
        m "setup_s" setup_s "s";
        m "t1_over_seq" (geo (fun b -> b.Batch.t1_over_seq)) "ratio";
        m "tp_over_seq" (geo (fun b -> b.Batch.tp_over_seq)) "ratio";
        m "checked_over_unsafe" (geo (fun b -> b.Batch.checked_over_unsafe)) "ratio";
        m "sync_over_unsafe" (geo (fun b -> b.Batch.sync_over_unsafe)) "ratio";
        m "serve_cost_over_exec" cost_over_exec "ratio";
        m "serve_p50_over_exec" p50_over_exec "ratio";
      ],
      batch.benches )
  in
  let wall = now () -. t_run in
  let spans = if traced then Span.stop () else [] in
  add "host.par_efficiency" host_eff "ratio";
  add "trace.spans" (float_of_int (List.length spans)) "count";
  add "trace.overhead_pct" (100. *. float_of_int (List.length spans) *. span_ns /. 1e9 /. wall) "%";
  let meta =
    [
      ("p", J.Int p);
      ("nproc", J.Int nproc);
      ("ocaml", J.Str Sys.ocaml_version);
      ("git_sha", J.Str (git_sha ()));
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("quick", J.Bool quick);
      ("scales", J.Obj (List.map (fun (b : Batch.bench_result) -> (b.name, J.Int b.bscale)) benches));
      ("serve_rate", J.Float wl.rate);
      ("host_par_efficiency", J.Float host_eff);
      ("host_ok", J.Bool host_ok);
    ]
  in
  {
    workload = wl;
    seed;
    traced;
    e2e;
    layer = List.rev !layer;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    meta;
    benches;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let metrics_json ms =
  J.Obj (List.map (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit) ])) ms)

(* The last line of a run: end-to-end metrics untraced, per-layer traced. *)
let final_line o =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (o.failed = 0));
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ("metrics", metrics_json (if o.traced then o.layer else o.e2e));
       ])

let doc o =
  J.Obj
    [
      ("kind", J.Str "perf");
      ("workload", J.Str o.workload.Workloads.name);
      ("traced", J.Bool o.traced);
      ("meta", J.Obj o.meta);
      ("correct", J.Bool (o.failed = 0));
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ("problems", J.List (List.map (fun s -> J.Str s) o.problems));
      ("end_to_end", metrics_json o.e2e);
      ("per_layer", metrics_json o.layer);
      ( "benchmarks",
        J.List
          (List.map
             (fun (b : Batch.bench_result) ->
               J.Obj
                 ([ ("name", J.Str b.name); ("scale", J.Int b.bscale); ("rounds", J.Int (Batch.rounds b)) ]
                 @ List.map
                     (fun (c, ms) ->
                       ( Batch.config_name c ^ "_ms",
                         J.Obj
                           [
                             ("median", J.Float (Stats.median ms));
                             ("samples", J.List (Array.to_list (Array.map (fun x -> J.Float x) ms)));
                           ] ))
                     b.samples_ms
                 @ [
                     ("t1_over_seq", J.Float b.t1_over_seq);
                     ("tp_over_seq", J.Float b.tp_over_seq);
                     ("checked_over_unsafe", J.Float b.checked_over_unsafe);
                     ("sync_over_unsafe", J.Float b.sync_over_unsafe);
                   ]))
             o.benches) );
    ]

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string j);
      output_char oc '\n')

let print_metrics title ms =
  Printf.printf "%s:\n" title;
  List.iter (fun x -> Printf.printf "  %-28s %14.6g %s\n" x.name x.value x.unit) ms

let print_outcome o =
  let meta k = J.to_string (List.assoc k o.meta) in
  Printf.printf "perf %s seed=%d P=%s nproc=%s ocaml=%s sha=%s\n" o.workload.Workloads.name o.seed
    (meta "p") (meta "nproc") Sys.ocaml_version (meta "git_sha");
  Printf.printf "host: par_efficiency=%s host_ok=%s%s\n" (meta "host_par_efficiency")
    (meta "host_ok")
    (if List.assoc "host_ok" o.meta = J.Bool true then ""
     else "  (P domains do not run in parallel here: do not compare this run)");
  Printf.printf "%-8s %5s %6s %9s %9s %9s %10s %9s %7s %7s %8s %8s\n" "bench" "scale" "rounds"
    "seq_ms" "t1_ms" "tp_ms" "checked_ms" "sync_ms" "t1/seq" "tp/seq" "chk/uns" "sync/uns";
  List.iter
    (fun (b : Batch.bench_result) ->
      let ms = Batch.median_ms b in
      Printf.printf "%-8s %5d %6d %9.3f %9.3f %9.3f %10.3f %9.3f %7.3f %7.3f %8.3f %8.3f\n" b.name
        b.bscale (Batch.rounds b) (ms Batch.Seq) (ms Batch.T1) (ms (Batch.Tp Rpb_benchmarks.Mode.Unsafe))
        (ms (Batch.Tp Rpb_benchmarks.Mode.Checked))
        (ms (Batch.Tp Rpb_benchmarks.Mode.Synchronized))
        b.t1_over_seq b.tp_over_seq b.checked_over_unsafe b.sync_over_unsafe)
    o.benches;
  print_metrics "end-to-end" o.e2e;
  print_metrics "per-layer" o.layer;
  List.iter (fun s -> Printf.printf "FAILED: %s\n" s) o.problems;
  Printf.printf "correctness: %d checks, %d failed\n" o.attempted o.failed

(* Self time by span name, the serve accounting identity, and the tracing
   overhead against the last untraced run of the workload. *)
let print_trace o ~last_untraced =
  Printf.printf "trace: %d spans; self time by span (ms):\n" (List.length o.spans);
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "  %-24s %7d %12.3f %12.3f\n" name n total self)
    (List.filteri (fun i _ -> i < 24) (Span.self_times o.spans));
  let req = List.filter (fun (s : Span.t) -> s.name = "request") o.spans in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (s : Span.t) -> Hashtbl.add children s.parent (s.end_ns - s.start_ns))
    o.spans;
  let rtt = List.fold_left (fun a (s : Span.t) -> a + (s.end_ns - s.start_ns)) 0 req in
  let parts =
    List.fold_left
      (fun a (s : Span.t) -> a + List.fold_left ( + ) 0 (Hashtbl.find_all children s.id))
      0 req
  in
  Printf.printf
    "serve requests: %d; round trips %.3f ms = late+queue+exec %.3f ms + other %.3f ms\n"
    (List.length req) (float_of_int rtt /. 1e6) (float_of_int parts /. 1e6)
    (float_of_int (rtt - parts) /. 1e6);
  Printf.printf "tracing overhead: %.4f%% of the run (span count x cost of one span)\n"
    (List.find (fun x -> x.name = "trace.overhead_pct") o.layer).value;
  match last_untraced with
  | None ->
    Printf.printf "tracing overhead vs untraced: no untraced run of %s with these settings\n"
      o.workload.Workloads.name
  | Some d ->
    let seed = J.get_int (J.member "seed" (J.member "meta" d)) in
    Printf.printf "tracing overhead vs the last untraced run (seed %d):\n" seed;
    List.iter
      (fun x ->
        match J.member_opt x.name (J.member "end_to_end" d) with
        | Some v ->
          let u = J.get_float (J.member "value" v) in
          Printf.printf "  %-22s untraced %12.6g traced %12.6g (%+.1f%%)\n" x.name u x.value
            (100. *. ((x.value /. u) -. 1.))
        | None -> ())
      o.e2e

(* ------------------------------------------------------------------ *)
(* Commands *)

let usage () =
  prerr_string
    "usage: perf.exe WORKLOAD [--seed N] [--seconds S] [--trace 0|1|FILE] [--json FILE] [--quick]\n\
    \       perf.exe agree DIR_A DIR_B\n\
    \       perf.exe smoke BENCHMARK.json\n";
  Printf.eprintf "workloads: %s\n" (String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit exit_usage

let run_cmd args =
  let workload = ref None and seed = ref 1 and seconds = ref 30. in
  let trace = ref None and json = ref None and quick = ref false in
  let int s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := int n; parse rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some f when f > 0. -> f | _ -> usage ());
      parse rest
    | "--trace" :: "0" :: rest -> trace := None; parse rest
    | "--trace" :: "1" :: rest -> trace := Some None; parse rest
    | "--trace" :: f :: rest -> trace := Some (Some f); parse rest
    | "--json" :: f :: rest -> json := Some f; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | w :: rest when !workload = None && not (String.starts_with ~prefix:"-" w) ->
      workload := Some w;
      parse rest
    | _ -> usage ()
  in
  parse args;
  let wl =
    match Option.bind !workload Workloads.find with Some w -> w | None -> usage ()
  in
  let traced = !trace <> None in
  let o = run_workload wl ~seed:!seed ~seconds:!seconds ~quick:!quick ~traced in
  print_outcome o;
  let dir = out_dir () in
  let last = Filename.concat dir (Printf.sprintf "last-%s.json" wl.Workloads.name) in
  Option.iter (fun f -> write_json f (doc o)) !json;
  (match !trace with
  | None -> write_json last (doc o)
  | Some file ->
    let file =
      Option.value file
        ~default:(Filename.concat dir (Printf.sprintf "trace-%s.json" wl.Workloads.name))
    in
    write_json file (Span.to_json ~workload:wl.Workloads.name ~seed:!seed o.spans);
    Printf.printf "trace written to %s\n" file;
    (* Only an untraced run with the same settings is comparable. *)
    let same_settings d =
      let meta = J.member "meta" d in
      List.for_all (fun k -> J.member k meta = List.assoc k o.meta) [ "seconds"; "quick" ]
    in
    let last_untraced =
      match Option.map J.of_string (read_file last) with
      | Some d when same_settings d -> Some d
      | _ | (exception J.Parse_error _) -> None
    in
    print_trace o ~last_untraced);
  print_endline (final_line o);
  exit (if o.failed = 0 then 0 else exit_incorrect)

(* BENCHMARK.json's end-to-end or per-layer entries. *)
let benchmark_metrics file key =
  let j = J.of_string (Option.get (read_file file)) in
  List.map
    (fun e ->
      ( J.get_str (J.member "name" e),
        J.get_str (J.member "unit" e),
        e ))
    (J.get_list (J.member key j))

(* Two sets of untraced result documents (directories of --json files)
   agree on a workload and metric when their medians are within the
   metric's bound; when either set's quartile spread is wider than the
   bound, the pair is unresolved. *)
let agree_cmd dir_a dir_b =
  let load dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           if not (Filename.check_suffix f ".json") then None
           else
             match J.of_string (Option.get (read_file (Filename.concat dir f))) with
             | d when J.member_opt "kind" d = Some (J.Str "perf")
                      && J.member_opt "traced" d = Some (J.Bool false) ->
               Some d
             | _ | (exception J.Parse_error _) -> None)
  in
  let a = load dir_a and b = load dir_b in
  let bounds = benchmark_metrics "BENCHMARK.json" "end_to_end" in
  let differs = ref 0 in
  Printf.printf "%-10s %-20s %5s %10s %21s  %5s %10s %21s  %s\n" "workload" "metric" "n_a" "median_a"
    "quartiles_a" "n_b" "median_b" "quartiles_b" "verdict";
  List.iter
    (fun (wl : Workloads.t) ->
      let values set name =
        List.filter_map
          (fun d ->
            if J.get_str (J.member "workload" d) <> wl.name then None
            else
              Option.map (fun v -> J.get_float (J.member "value" v))
                (J.member_opt name (J.member "end_to_end" d)))
          set
        |> Array.of_list
      in
      List.iter
        (fun (name, _, e) ->
          let bound = J.get_float (J.member "bound" e) in
          let va = values a name and vb = values b name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let quart v =
              let s = Array.copy v in
              Array.sort compare s;
              (Stats.quantile_sorted s 0.25, Stats.median s, Stats.quantile_sorted s 0.75)
            in
            let qa1, ma, qa3 = quart va and qb1, mb, qb3 = quart vb in
            let spread = Float.max ((qa3 -. qa1) /. ma) ((qb3 -. qb1) /. mb) in
            let verdict =
              if spread > bound then "unresolved"
              else if Float.abs ((mb /. ma) -. 1.) > bound then (incr differs; "differs")
              else "agrees"
            in
            Printf.printf "%-10s %-20s %5d %10.5g [%9.5g,%9.5g]  %5d %10.5g [%9.5g,%9.5g]  %s\n"
              wl.name name (Array.length va) ma qa1 qa3 (Array.length vb) mb qb1 qb3 verdict
          end)
        bounds)
    Workloads.all;
  exit (if !differs = 0 then 0 else exit_disagree)

(* Every workload in quick form: each must check out correct and print
   exactly BENCHMARK.json's metrics with their units. *)
let smoke_cmd file =
  let declared = List.map (fun w -> w.Workloads.name) Workloads.all in
  let named =
    List.map (fun w -> J.get_str (J.member "name" w))
      (J.get_list (J.member "workloads" (J.of_string (Option.get (read_file file)))))
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if List.sort compare named <> List.sort compare declared then
    err "BENCHMARK.json names workloads %s, perf.exe has %s" (String.concat "," named)
      (String.concat "," declared);
  List.iter
    (fun (wl : Workloads.t) ->
      let t0 = now () in
      let o = run_workload wl ~seed:1 ~seconds:1. ~quick:true ~traced:true in
      if o.failed > 0 then err "%s: %s" wl.name (String.concat "; " o.problems);
      List.iter
        (fun (key, traced) ->
          let line = J.of_string (final_line { o with traced }) in
          let printed =
            match J.member "metrics" line with J.Obj kvs -> kvs | _ -> []
          in
          let expected = benchmark_metrics file key in
          if List.length printed <> List.length expected then
            err "%s: %d %s metrics printed, %d declared" wl.name (List.length printed) key
              (List.length expected);
          List.iter
            (fun (name, unit, _) ->
              match List.assoc_opt name printed with
              | None -> err "%s: %s metric %s not printed" wl.name key name
              | Some v ->
                if J.member "unit" v <> J.Str unit then err "%s: %s has the wrong unit" wl.name name;
                (match J.member "value" v with
                | J.Float _ -> ()
                | _ -> err "%s: %s is not a number" wl.name name))
            expected)
        [ ("end_to_end", false); ("per_layer", true) ];
      Printf.printf "smoke %-10s %5.2f s, %d checks, %d failed\n%!" wl.name (now () -. t0) o.attempted
        o.failed)
    Workloads.all;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev !errors);
  exit (if !errors = [] then 0 else 1)

let () =
  (* A server that dies mid-write must surface as an error, not kill the
     benchmark; and an interrupted run still stops its servers (at_exit). *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  match List.tl (Array.to_list Sys.argv) with
  | [ "agree"; a; b ] -> agree_cmd a b
  | [ "smoke"; file ] -> smoke_cmd file
  | args -> run_cmd args
