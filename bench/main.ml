(* RPB benchmark harness: regenerates every table and figure of the paper.

   Usage:
     dune exec bench/main.exe                 -- everything (default sizes)
     dune exec bench/main.exe -- table1       -- a single artifact
     dune exec bench/main.exe -- fig4 --scale 4 --threads 4 --repeats 5
     dune exec bench/main.exe -- bechamel     -- Bechamel versions (one
                                                 Test.make per table/figure)
     dune exec bench/main.exe -- table1 --scale 0 --repeats 1 --json out.json

   Artifacts: table1 table2 table3 fig3 fig4 fig5a fig5b fig6 ablation
   bechamel.  (Fig. 2, the fear spectrum, is printed with table3.)

   With --json FILE every timed benchmark run additionally appends a
   machine-readable record (name, mode, scale, repeats, mean/min ns, and the
   per-worker steal/task counters from Pool.Stats); the collected records are
   written as one Bench_json document CI archives as BENCH_*.json.  table1,
   which is otherwise untimed, times one quick run per benchmark in this mode
   so a bench-smoke job gets real telemetry out of the cheapest artifact. *)

open Rpb_benchmarks

let nproc = Domain.recommended_domain_count ()

(* One domain per core, and at least two so every cross-domain code path is
   exercised even on a single core.  More domains than cores time-slice,
   which the --json meta records as oversubscribed. *)
let default_threads = max 2 (min 8 nproc)

(* The checkout's commit, or "unknown" outside a git checkout. *)
let git_sha () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some sha -> sha
    | _ -> "unknown")

type config = {
  scale : int;
  threads : int;
  repeats : int;
  json : string option;
  metrics_json : string option;
      (* --metrics-json: run with the live metrics plane enabled and append
         one kind=metrics snapshot per artifact (plus a final one) as JSONL.
         Off by default so timed runs pay only the disabled-path atomic
         load. *)
}

(* Records accumulated for --json, in run order. *)
let records : Bench_json.record list ref = ref []
let json_active = ref false
let record_result r = if !json_active then records := r :: !records

let line () = print_endline (String.make 78 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

let metrics_active = ref false

let with_pool n f =
  let pool = Rpb_pool.Pool.create ~num_workers:n () in
  (* Latest pool wins the pool.* probes — each artifact's measurement pool
     shows up in the snapshot stream while it is the one doing work. *)
  if !metrics_active then Rpb_obs.Metrics.register_pool pool;
  Fun.protect ~finally:(fun () -> Rpb_pool.Pool.shutdown pool) (fun () -> f pool)

(* The paper reports means over repeats on a quiet dedicated machine; on a
   shared container the min is the standard noise-robust estimator, so the
   human tables report min-of-repeats (the JSON records carry both). *)
let time_benchmark ?(smoke = false) pool cfg e input how =
  let record, size =
    Registry.measure_entry ~smoke pool ~entry:e ~input ~scale:cfg.scale
      ~repeats:cfg.repeats ~how
  in
  record_result record;
  (record.Bench_json.min_ns /. 1e9, record.Bench_json.verified, size)

(* Every ad-hoc timing below (fig6, ablation, extras) goes through this one
   sampling call: the workload runs exactly [repeats] times and every
   estimator — mean for the paper-style tables, min for the extras — is
   derived from the same per-repeat sample vector, never from separate
   re-runs per estimator. *)
let sampled cfg f = Rpb_prim.Timing.samples ~repeats:cfg.repeats f
let mean_t ts = Rpb_obs.Stats.mean ts
let best_t ts = Rpb_obs.Stats.minimum ts

(* ------------------------------------------------------------------ *)
(* Table 1: benchmarks and their parallel access patterns.              *)

let table1 cfg =
  header "Table 1: Ported benchmarks and their parallel access patterns";
  let pats = Rpb_core.Pattern.all_accesses in
  Printf.printf "%-6s %-38s %-14s" "Abbrv" "Benchmark name" "Inputs";
  List.iter (fun p -> Printf.printf " %-7s" (Rpb_core.Pattern.access_name p)) pats;
  Printf.printf " %-7s\n" "dispatch";
  List.iter
    (fun e ->
      Printf.printf "%-6s %-38s %-14s" e.Common.name e.Common.full_name
        (String.concat "," e.Common.inputs);
      List.iter
        (fun p ->
          Printf.printf " %-7s"
            (if List.mem p e.Common.patterns then "x" else ""))
        pats;
      Printf.printf " %-7s\n" (if e.Common.dynamic then "dynamic" else "static"))
    Registry.all;
  (* In --json mode the registry listing also times one quick run per
     benchmark (default input, unsafe mode) so the machine-readable output
     carries real per-benchmark timing and per-worker steal/task counters
     even for this otherwise untimed artifact. *)
  if !json_active then begin
    Printf.printf
      "\n(--json: one smoke run per benchmark for the machine-readable \
       output)\n";
    with_pool cfg.threads (fun pool ->
        List.iter
          (fun e ->
            let input = List.hd e.Common.inputs in
            (* smoke-flagged: one-shot runs, kept out of the report's curves *)
            let t, ok, size =
              time_benchmark ~smoke:true pool cfg e input (`Par Mode.Unsafe)
            in
            Printf.printf "  %-6s %-28s %10.4f s  [%s]\n" e.Common.name
              (Printf.sprintf "%s (%s)" input size)
              t
              (if ok then "ok" else "VERIFY-FAILED");
            flush stdout)
          Registry.all)
  end

(* ------------------------------------------------------------------ *)
(* Table 2: input graphs.                                               *)

let table2 cfg =
  header "Table 2: Input graphs (scaled stand-ins; paper: link/rmat/road)";
  Printf.printf "%-10s %-12s %12s %12s %8s %8s\n" "Name" "Stand-in for" "|V|" "|E|"
    "|E|/|V|" "maxdeg";
  with_pool cfg.threads (fun pool ->
      Rpb_pool.Pool.run pool (fun () ->
          List.iter
            (fun (name, orig) ->
              let g =
                Rpb_graph.Generate.by_name pool ~name
                  ~scale:(Graph_inputs.base_scale + cfg.scale)
                  ~weighted:false
              in
              Printf.printf "%-10s %-12s %12d %12d %8.1f %8d\n" name orig
                (Rpb_graph.Csr.n g) (Rpb_graph.Csr.m g)
                (Rpb_graph.Csr.avg_degree g)
                (Rpb_graph.Csr.max_degree pool g))
            [ ("link", "Hyperlink"); ("rmat", "R-MAT"); ("road", "USA roads") ]))

(* ------------------------------------------------------------------ *)
(* Table 3 + Fig. 2: patterns, expressions, fear spectrum.              *)

let table3 _cfg =
  header "Table 3: Studied patterns and their safety levels";
  Printf.printf "%-7s %-55s %s\n" "Abbr." "Parallel expression (our OCaml analogue)"
    "Fear";
  List.iter
    (fun p ->
      Printf.printf "%-7s %-55s %s\n"
        (Rpb_core.Pattern.access_name p)
        (Rpb_core.Pattern.expression p)
        (Rpb_core.Pattern.fear_name (Rpb_core.Pattern.safety p)))
    Rpb_core.Pattern.all_accesses;
  print_newline ();
  print_endline "Fig. 2: spectrum of fear:";
  print_endline "  F (fearless)    errors caught at compile time";
  print_endline "  C (comfortable) errors caught at run time, symptom near cause";
  print_endline "  S (scared)      errors may happen without being detected"

(* ------------------------------------------------------------------ *)
(* Fig. 3: distribution of access patterns.                             *)

let fig3 _cfg =
  header "Fig. 3: Distribution of access patterns in RPB (ours vs paper)";
  let paper =
    Rpb_core.Pattern.
      [ (RO, 11.0); (Stride, 52.0); (Block, 3.0); (DandC, 5.0); (SngInd, 13.0);
        (RngInd, 7.0); (AW, 9.0) ]
  in
  Printf.printf "%-8s %8s %8s %8s\n" "Pattern" "sites" "ours(%)" "paper(%)";
  let irregular = ref 0.0 in
  List.iter
    (fun (p, c, pct) ->
      (match p with
       | Rpb_core.Pattern.SngInd | Rpb_core.Pattern.RngInd | Rpb_core.Pattern.AW ->
         irregular := !irregular +. pct
       | _ -> ());
      Printf.printf "%-8s %8d %8.1f %8.1f\n"
        (Rpb_core.Pattern.access_name p)
        c pct
        (List.assoc p paper))
    (Registry.access_distribution ());
  Printf.printf "\nIrregular share (SngInd+RngInd+AW): ours %.1f%%, paper 29%%\n"
    !irregular

(* ------------------------------------------------------------------ *)
(* Fig. 4: execution time, parallel vs sequential baseline, 1 and P.    *)

let all_benchmark_inputs () =
  List.concat_map
    (fun e -> List.map (fun input -> (e, input)) e.Common.inputs)
    Registry.all

let fig4 cfg =
  header
    (Printf.sprintf
       "Fig. 4: RPB (parallel, unsafe switch) vs baseline (sequential), %d repeats"
       cfg.repeats);
  Printf.printf
    "(paper compares Rust+Rayon against C+++OpenCilk on 1 and 24 cores;\n\
    \ here: our parallel runtime at 1 and %d domains vs sequential OCaml)\n\n"
    cfg.threads;
  Printf.printf "%-12s %-28s %10s %10s %10s %9s %7s %4s\n" "bench" "input" "seq(s)"
    "par1(s)" "parP(s)" "par1/seq" "scale" "ok";
  List.iter
    (fun (e, input) ->
      let seq_t, seq_ok, size =
        with_pool 1 (fun pool -> time_benchmark pool cfg e input `Seq)
      in
      let par1_t, par1_ok, _ =
        with_pool 1 (fun pool -> time_benchmark pool cfg e input (`Par Mode.Unsafe))
      in
      let parp_t, parp_ok, _ =
        with_pool cfg.threads (fun pool ->
            time_benchmark pool cfg e input (`Par Mode.Unsafe))
      in
      Printf.printf "%-12s %-28s %10.4f %10.4f %10.4f %9.2f %7.2f %4s\n"
        e.Common.name
        (Printf.sprintf "%s (%s)" input size)
        seq_t par1_t parp_t (par1_t /. seq_t) (par1_t /. parp_t)
        (if seq_ok && par1_ok && parp_ok then "yes" else "NO");
      flush stdout)
    (all_benchmark_inputs ());
  print_newline ();
  print_endline
    "par1/seq ~ the paper's Fig. 4(a) ratio (runtime abstraction cost at 1 thread);";
  print_endline
    "scale = par1/parP ~ the Fig. 4(b) scaling dots (flat on a 1-core container)."

(* ------------------------------------------------------------------ *)
(* Fig. 5a: overhead of checked (interior-unsafe) SngInd on bw/lrs/sa.  *)

let fig5a cfg =
  header "Fig. 5(a): overhead of run-time offset checking (checked / unsafe)";
  Printf.printf "%-12s %12s %12s %10s   %s\n" "bench" "unsafe(s)" "checked(s)"
    "ratio" "paper(24t)";
  let paper = [ ("bw", "~1.0x"); ("lrs", "~2.8x"); ("sa", "~2.0x") ] in
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> ()
      | Some e ->
        let input = List.hd e.Common.inputs in
        let tu, oku, _ =
          with_pool cfg.threads (fun pool ->
              time_benchmark pool cfg e input (`Par Mode.Unsafe))
        in
        let tc, okc, _ =
          with_pool cfg.threads (fun pool ->
              time_benchmark pool cfg e input (`Par Mode.Checked))
        in
        Printf.printf "%-12s %12.4f %12.4f %9.2fx   %s%s\n" name tu tc (tc /. tu)
          (List.assoc name paper)
          (if oku && okc then "" else "  VERIFY-FAILED");
        flush stdout)
    [ "bw"; "lrs"; "sa" ]

(* ------------------------------------------------------------------ *)
(* Fig. 5b: overhead of unnecessary synchronization.                    *)

let fig5b cfg =
  header "Fig. 5(b): overhead of unnecessary synchronization (sync / unsafe)";
  Printf.printf "%-12s %-10s %12s %12s %10s\n" "bench" "input" "unsafe(s)"
    "sync(s)" "ratio";
  let subjects =
    [ "bw"; "lrs"; "sa"; "mis"; "mm"; "msf"; "sf"; "hist"; "sort"; "isort"; "dedup" ]
  in
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> ()
      | Some e ->
        List.iter
          (fun input ->
            let tu, oku, _ =
              with_pool cfg.threads (fun pool ->
                  time_benchmark pool cfg e input (`Par Mode.Unsafe))
            in
            let ts, oks, _ =
              with_pool cfg.threads (fun pool ->
                  time_benchmark pool cfg e input (`Par Mode.Synchronized))
            in
            Printf.printf "%-12s %-10s %12.4f %12.4f %9.2fx%s\n" name input tu ts
              (ts /. tu)
              (if oku && oks then "" else "  VERIFY-FAILED");
            flush stdout)
          e.Common.inputs)
    subjects;
  print_newline ();
  print_endline
    "paper: negligible overhead with relaxed atomics, except hist (multi-word";
  print_endline "accumulator, mutex-only) at 4.0x."

(* ------------------------------------------------------------------ *)
(* Fig. 6 / Appendix A.                                                 *)

let fig6 cfg =
  header "Fig. 6 / Appendix A: parallelization strategies for vector hashing";
  let n = 1 lsl (16 + cfg.scale) in
  Printf.printf "vector: %d elements; workers: %d\n\n" n cfg.threads;
  Printf.printf "%-22s %12s %8s   %s\n" "variant" "time(s)" "LoC" "notes";
  with_pool cfg.threads (fun pool ->
      Rpb_pool.Pool.run pool (fun () ->
          let input = Array.init n (fun i -> i) in
          let expected_sample = Appendix_a.task input.(42) in
          List.iter
            (fun v ->
              let data = Array.copy input in
              match
                sampled cfg (fun () ->
                    Array.blit input 0 data 0 n;
                    v.Appendix_a.run ~workers:cfg.threads ~pool data)
              with
              | (), ts ->
                let t = mean_t ts in
                let ok = data.(42) = expected_sample in
                Printf.printf "%-22s %12.4f %8d   %s\n" v.Appendix_a.name t
                  v.Appendix_a.lines_of_code
                  (if ok then "" else "WRONG RESULT");
                flush stdout
              | exception Appendix_a.Infeasible msg ->
                Printf.printf "%-22s %12s %8d   %s\n" v.Appendix_a.name "panic"
                  v.Appendix_a.lines_of_code msg;
                flush stdout)
            Appendix_a.variants))

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md design choices).                                *)

let ablation cfg =
  header "Ablations: design choices called out in DESIGN.md";
  with_pool cfg.threads (fun pool ->
      Rpb_pool.Pool.run pool (fun () ->
          (* 1. parallel_for grain size. *)
          let n = 1 lsl (18 + cfg.scale) in
          let v = Array.init n (fun i -> i) in
          Printf.printf "1. parallel_for grain (n = %d):\n" n;
          List.iter
            (fun grain ->
              let (), ts =
                sampled cfg (fun () ->
                    Rpb_pool.Pool.parallel_for ~grain ~start:0 ~finish:n
                      ~body:(fun i -> Array.unsafe_set v i (Rpb_prim.Rng.hash64 i))
                      pool)
              in
              Printf.printf "   grain %8d: %10.4f s\n" grain (mean_t ts))
            [ 64; 1024; 16384; n / (8 * cfg.threads) ];
          (* 2. Scatter uniqueness-check strategy. *)
          let m = 1 lsl (16 + cfg.scale) in
          let offsets = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create 5) m in
          Printf.printf "2. SngInd uniqueness check strategy (m = %d):\n" m;
          List.iter
            (fun (name, strategy) ->
              let (), ts =
                sampled cfg (fun () ->
                    Rpb_core.Scatter.validate_offsets ~strategy pool ~n:m offsets)
              in
              Printf.printf "   %-12s %10.4f s\n" name (mean_t ts))
            [ ("mark-table", Rpb_core.Scatter.Mark_table);
              ("sort-based", Rpb_core.Scatter.Sort_based) ];
          (* 3. MultiQueue lane multiplier on sssp. *)
          let g =
            Rpb_graph.Generate.by_name pool ~name:"road"
              ~scale:(Graph_inputs.base_scale + cfg.scale) ~weighted:true
          in
          Printf.printf "3. MultiQueue lanes-per-worker (sssp on road %s):\n"
            (Graph_inputs.describe g);
          List.iter
            (fun c ->
              let (), ts =
                sampled cfg (fun () ->
                    ignore
                      (Rpb_graph.Traverse.sssp ~queues_per_worker:c pool g ~src:0))
              in
              Printf.printf "   c = %d: %10.4f s\n" c (mean_t ts))
            [ 1; 2; 4 ];
          (* 4. bw decode: sequential chase vs parallel list ranking. *)
          let text = Rpb_text.Text_gen.wiki ~size:(1 lsl (14 + cfg.scale)) ~seed:31 in
          let encoded = Rpb_text.Bwt.encode pool text in
          Printf.printf "4. bw decode strategy (%d bytes):\n" (String.length text);
          List.iter
            (fun (name, f) ->
              let (), ts = sampled cfg f in
              Printf.printf "   %-22s %10.4f s\n" name (mean_t ts))
            [
              ("sequential chase", fun () -> ignore (Rpb_text.Bwt.decode pool encoded));
              ( "parallel list-ranking",
                fun () -> ignore (Rpb_text.Bwt.decode_parallel pool encoded) );
            ];
          (* 5. Sample sort oversampling. *)
          let rng = Rpb_prim.Rng.create 6 in
          let keys = Array.init m (fun _ -> Rpb_prim.Rng.int rng 1_000_000) in
          Printf.printf "5. sample sort oversampling (n = %d):\n" m;
          List.iter
            (fun ov ->
              let (), ts =
                sampled cfg (fun () ->
                    ignore
                      (Rpb_parseq.Sort.sample_sort_with ~oversample:ov pool
                         ~cmp:compare keys))
              in
              Printf.printf "   oversample %3d: %10.4f s\n" ov (mean_t ts))
            [ 2; 8; 32 ]))

(* ------------------------------------------------------------------ *)
(* Extensions: the beyond-the-paper benchmarks (absent patterns + extra
   PBBS workloads), timed for completeness.                             *)

let extras cfg =
  header "Extensions: absent patterns and extra PBBS workloads";
  with_pool cfg.threads (fun pool ->
      Rpb_pool.Pool.run pool (fun () ->
          let t name f =
            let x, ts = sampled cfg f in
            Printf.printf "%-34s %10.4f s   %s\n" name (best_t ts) x;
            flush stdout
          in
          let g =
            Rpb_graph.Generate.by_name pool ~name:"rmat"
              ~scale:(Graph_inputs.base_scale + cfg.scale) ~weighted:false
          in
          t "pagerank (pull, 20 iters)" (fun () ->
              let r = Rpb_graph.Pagerank.compute pool g in
              Printf.sprintf "mass %.4f" (Array.fold_left ( +. ) 0.0 r));
          t "pagerank (push+mutex, 20 iters)" (fun () ->
              let r =
                Rpb_graph.Pagerank.compute ~method_:Rpb_graph.Pagerank.Push_mutex
                  pool g
              in
              Printf.sprintf "mass %.4f" (Array.fold_left ( +. ) 0.0 r));
          let pts = Rpb_geom.Pointgen.uniform_square ~n:(2_000 * (1 lsl cfg.scale)) ~seed:61 in
          t "quickhull" (fun () ->
              Printf.sprintf "hull %d"
                (Array.length (Rpb_geom.Quickhull.convex_hull pool pts)));
          t "knn (build + 1k queries)" (fun () ->
              let tree = Rpb_geom.Quadtree.build pool pts in
              let queries = Rpb_geom.Pointgen.uniform_square ~n:1_000 ~seed:62 in
              let r = Rpb_geom.Quadtree.nearest_neighbors pool tree queries in
              Printf.sprintf "answers %d" (Array.length r));
          let bodies = Rpb_geom.Nbody.random_bodies ~n:(500 * (1 lsl cfg.scale)) ~seed:63 in
          t "nbody (Barnes-Hut forces)" (fun () ->
              let ax, _ = Rpb_geom.Nbody.forces pool bodies in
              Printf.sprintf "n %d" (Array.length ax));
          let text = Rpb_text.Text_gen.wiki ~size:(8_000 * (1 lsl cfg.scale)) ~seed:64 in
          t "word count" (fun () ->
              Printf.sprintf "distinct %d"
                (Array.length (Rpb_text.Word_count.count pool text)));
          t "stm (10k transfers, 4 domains)" (fun () ->
              let accounts = Array.init 8 (fun _ -> Rpb_extra.Stm.tvar 100) in
              let ds =
                Array.init 4 (fun d ->
                    Domain.spawn (fun () ->
                        let rng = Rpb_prim.Rng.create (700 + d) in
                        for _ = 1 to 2_500 do
                          let a = Rpb_prim.Rng.int rng 8 in
                          let b = (a + 1) mod 8 in
                          Rpb_extra.Stm.atomically (fun tx ->
                              let x = Rpb_extra.Stm.read tx accounts.(a) in
                              Rpb_extra.Stm.write tx accounts.(a) (x - 1);
                              Rpb_extra.Stm.write tx accounts.(b)
                                (Rpb_extra.Stm.read tx accounts.(b) + 1))
                        done))
              in
              Array.iter Domain.join ds;
              let total = Array.fold_left (fun acc v -> acc + Rpb_extra.Stm.get v) 0 accounts in
              Printf.sprintf "conserved %b" (total = 800));
          t "pipeline (3 stages, 100k items)" (fun () ->
              let p =
                Rpb_extra.Pipeline.(
                  stage (fun x -> x * 3) >>> stage (fun x -> x + 1)
                  >>> stage (fun x -> x land 0xFFFF))
              in
              let out = Rpb_extra.Pipeline.run p (Array.init 100_000 Fun.id) in
              Printf.sprintf "items %d" (Array.length out));
          t "branch&bound knapsack (26 items)" (fun () ->
              let items, capacity = Rpb_extra.Branch_bound.Knapsack.random_instance ~n:26 ~seed:65 in
              Printf.sprintf "optimum %d"
                (Rpb_extra.Branch_bound.maximize pool
                   (Rpb_extra.Branch_bound.Knapsack.problem items ~capacity)))))

(* ------------------------------------------------------------------ *)
(* Bechamel: one Test.make per table/figure.                            *)

let bechamel cfg =
  header "Bechamel micro-harness (one Test.make per table/figure)";
  let open Bechamel in
  let open Toolkit in
  with_pool cfg.threads (fun pool ->
      Rpb_pool.Pool.run pool (fun () ->
          let quick name prep = Test.make ~name (Staged.stage prep) in
          (* Small fixed inputs so each Bechamel test runs in milliseconds. *)
          let text = Rpb_text.Text_gen.wiki ~size:2_000 ~seed:7 in
          let encoded = Rpb_text.Bwt.encode pool text in
          let g =
            Rpb_graph.Generate.by_name pool ~name:"road"
              ~scale:Graph_inputs.base_scale ~weighted:true
          in
          let rng = Rpb_prim.Rng.create 8 in
          let keys = Array.init 20_000 (fun _ -> Rpb_prim.Rng.int rng 1_000_000) in
          let small_keys = Array.map (fun k -> k land 255) keys in
          let values = Array.map (fun k -> k land 1023) keys in
          let points = Rpb_geom.Pointgen.kuzmin ~n:120 ~seed:9 in
          let hash_input = Array.init 50_000 Fun.id in
          let tests =
            [
              quick "table1-registry" (fun () -> Registry.access_distribution ());
              quick "table2-graph-gen" (fun () ->
                  Rpb_graph.Generate.rmat pool ~scale:8 ~edge_factor:4 ());
              quick "table3-safety" (fun () ->
                  List.map Rpb_core.Pattern.safety Rpb_core.Pattern.all_accesses);
              quick "fig3-distribution" (fun () -> Registry.access_distribution ());
              quick "fig4-bw-decode" (fun () -> Rpb_text.Bwt.decode pool encoded);
              quick "fig4-sssp" (fun () -> Rpb_graph.Traverse.sssp pool g ~src:0);
              quick "fig4-sort" (fun () ->
                  Rpb_parseq.Sort.sample_sort pool ~cmp:compare keys);
              quick "fig4-hist" (fun () ->
                  Rpb_parseq.Histogram.histogram_stats
                    ~mode:Rpb_parseq.Histogram.Stats_private pool ~keys:small_keys
                    ~values ~buckets:256);
              quick "fig4-dr" (fun () ->
                  let mesh = Rpb_geom.Delaunay.triangulate points in
                  Rpb_geom.Refine.refine ~max_rounds:8 pool mesh);
              quick "fig5a-checked-scatter" (fun () ->
                  Rpb_text.Suffix_array.build
                    ~mode:Rpb_text.Suffix_array.Checked_scatter pool text);
              quick "fig5a-unsafe-scatter" (fun () ->
                  Rpb_text.Suffix_array.build
                    ~mode:Rpb_text.Suffix_array.Unchecked_scatter pool text);
              quick "fig5b-hist-mutex" (fun () ->
                  Rpb_parseq.Histogram.histogram_stats
                    ~mode:Rpb_parseq.Histogram.Stats_mutex pool ~keys:small_keys
                    ~values ~buckets:256);
              quick "fig6-pool-hash" (fun () ->
                  Rpb_core.Par_array.map_inplace pool Appendix_a.task
                    (Array.copy hash_input));
            ]
          in
          let test = Test.make_grouped ~name:"rpb" ~fmt:"%s/%s" tests in
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
          in
          let instances = Instance.[ monotonic_clock ] in
          let cfgb =
            Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:(Some 5) ()
          in
          let raw_results = Benchmark.all cfgb instances test in
          let results =
            List.map (fun instance -> Analyze.all ols instance raw_results) instances
          in
          let results = Analyze.merge ols instances results in
          match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
          | None -> print_endline "no results"
          | Some tbl ->
            let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
            let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
            Printf.printf "%-32s %16s\n" "test" "ns/run";
            List.iter
              (fun (name, ols) ->
                match Analyze.OLS.estimates ols with
                | Some [ est ] -> Printf.printf "%-32s %16.1f\n" name est
                | _ -> Printf.printf "%-32s %16s\n" name "n/a")
              rows))

(* ------------------------------------------------------------------ *)
(* Work/span profile: one flight-recorder run per benchmark (also reachable
   as `bench/main.exe -- profile` or via the --profile flag).               *)

let profile cfg =
  header
    (Printf.sprintf
       "Work/span profile (flight recorder, unsafe mode, %d threads)"
       cfg.threads);
  Printf.printf "%-8s %-12s %10s %10s %8s %8s %7s %7s %8s\n" "bench" "input"
    "work" "span" "par" "burden" "tasks" "steals" "dropped";
  List.iter
    (fun e ->
      let name = e.Common.name in
      let r =
        Rpb_obs.Profile.profile ~bench:name ~threads:cfg.threads
          ~scale:cfg.scale ~seed:42 ()
      in
      let m = r.Rpb_obs.Profile.metrics in
      Printf.printf "%-8s %-12s %9.3fms %9.3fms %8.2f %8.2f %7d %7d %8d%s\n"
        name r.Rpb_obs.Profile.input
        (float_of_int m.Rpb_obs.Sp_dag.work_ns /. 1e6)
        (float_of_int m.Rpb_obs.Sp_dag.span_ns /. 1e6)
        m.Rpb_obs.Sp_dag.parallelism m.Rpb_obs.Sp_dag.burdened_parallelism
        m.Rpb_obs.Sp_dag.tasks m.Rpb_obs.Sp_dag.steals
        m.Rpb_obs.Sp_dag.dropped
        (if r.Rpb_obs.Profile.verified then "" else "  VERIFY-FAILED");
      flush stdout)
    Registry.all;
  print_newline ();
  print_endline
    "par = work/span (DAG parallelism); burden = work/burdened-span (after";
  print_endline
    "measured steal-migration delays); see `rpb profile` for the full report."

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig6", fig6);
    ("ablation", ablation);
    ("extras", extras);
    ("bechamel", bechamel);
  ]

(* Not part of the default everything-run (profile re-times every
   benchmark); selected explicitly by name or with the --profile flag. *)
let extra_artifacts = [ ("profile", profile) ]

let parse_args () =
  let scale = ref 2 and threads = ref default_threads and repeats = ref 3 in
  let json = ref None in
  let metrics_json = ref None in
  let which = ref [] in
  let rec go = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := int_of_string v;
      go rest
    | "--threads" :: v :: rest ->
      threads := int_of_string v;
      go rest
    | "--repeats" :: v :: rest ->
      repeats := int_of_string v;
      go rest
    | "--json" :: v :: rest ->
      json := Some v;
      go rest
    | "--metrics-json" :: v :: rest ->
      metrics_json := Some v;
      go rest
    | "--profile" :: rest ->
      which := "profile" :: !which;
      go rest
    | name :: rest ->
      which := name :: !which;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  let which =
    match List.rev !which with [] -> List.map fst artifacts | l -> l
  in
  ( {
      scale = !scale;
      threads = !threads;
      repeats = !repeats;
      json = !json;
      metrics_json = !metrics_json;
    },
    which )

let write_json cfg which =
  match cfg.json with
  | None -> ()
  | Some path ->
    let meta =
      Bench_json.
        [
          ("generator", Str "rpb-bench");
          ("scale", Int cfg.scale);
          ("threads", Int cfg.threads);
          ("repeats", Int cfg.repeats);
          ("nproc", Int nproc);
          ("oversubscribed", Bool (cfg.threads > nproc));
          ("ocaml_version", Str Sys.ocaml_version);
          ("git_sha", Str (git_sha ()));
          ("artifacts", List (List.map (fun a -> Str a) which));
        ]
    in
    let rs = List.rev !records in
    Bench_json.write_doc ~path ~meta rs;
    Printf.printf "wrote %d benchmark records to %s\n" (List.length rs) path

let () =
  let cfg, which = parse_args () in
  json_active := cfg.json <> None;
  let metrics_oc =
    match cfg.metrics_json with
    | None -> None
    | Some path ->
      metrics_active := true;
      Rpb_obs.Metrics.enable ();
      ignore (Rpb_obs.Metrics.sample_gc_pauses ());
      Some (open_out path)
  in
  Printf.printf
    "RPB reproduction harness: scale=%d threads=%d repeats=%d (host cores: %d)\n"
    cfg.scale cfg.threads cfg.repeats nproc;
  if cfg.threads > nproc then
    Printf.eprintf
      "warning: --threads %d is more than the host's %d cores; the domains \
       time-slice and the timings are oversubscribed\n%!"
      cfg.threads nproc;
  List.iter
    (fun name ->
      match List.assoc_opt name (artifacts @ extra_artifacts) with
      | Some f ->
        f cfg;
        Option.iter Rpb_obs.Metrics.write_snapshot_line metrics_oc
      | None ->
        Printf.eprintf "unknown artifact %s; known: %s\n" name
          (String.concat " "
             (List.map fst (artifacts @ extra_artifacts)));
        exit 1)
    which;
  (match metrics_oc with
  | Some oc ->
    Rpb_obs.Metrics.write_snapshot_line oc;
    close_out oc;
    Printf.printf "wrote metrics snapshots to %s\n"
      (Option.get cfg.metrics_json)
  | None -> ());
  write_json cfg which
