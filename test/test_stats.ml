(* Tests for the statistics layer (Rpb_obs.Stats) and the report's
   artifact loading and rendering (Rpb_obs.Report).

   The estimators are checked against hand-computed answers; the report
   against small synthetic documents of every kind it reads, and against
   the ones it must skip without crashing. *)

module J = Rpb_benchmarks.Bench_json
module Stats = Rpb_obs.Stats
module Report = Rpb_obs.Report

let check_float name expected actual =
  Alcotest.(check (float 1e-9)) name expected actual

(* ---------- Stats: point estimators, hand-computed ---------- *)

let test_median_known () =
  check_float "odd length" 3.0 (Stats.median [| 5.0; 1.0; 3.0; 2.0; 4.0 |]);
  check_float "even length midpoint" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  check_float "singleton" 7.0 (Stats.median [| 7.0 |]);
  check_float "mean" 3.0 (Stats.mean [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "minimum" 1.0 (Stats.minimum [| 3.0; 1.0; 2.0 |]);
  check_float "maximum" 3.0 (Stats.maximum [| 3.0; 1.0; 2.0 |]);
  (* input must not be mutated by the sorting estimators *)
  let a = [| 5.0; 1.0; 3.0 |] in
  ignore (Stats.median a);
  Alcotest.(check (array (float 0.0))) "median leaves input untouched"
    [| 5.0; 1.0; 3.0 |] a

let test_nearest_rank_known () =
  (* ceil(pct * count / 100), clamped to [1, count] — the one definition
     Latency, Metrics buckets and percentile_sorted now share. *)
  List.iter
    (fun (count, pct, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "rank(count=%d, p%g)" count pct)
        expected
        (Stats.nearest_rank ~count ~pct))
    [
      (1, 0., 1); (1, 50., 1); (1, 100., 1);
      (100, 50., 50); (100, 95., 95); (100, 99., 99); (100, 100., 100);
      (100, 0.5, 1); (100, 99.01, 100);
      (4, 25., 1); (4, 26., 2); (4, 50., 2); (4, 75., 3); (4, 76., 4);
      (* out-of-range percentiles clamp instead of indexing out of bounds *)
      (100, -5., 1); (100, 250., 100);
    ];
  (match Stats.nearest_rank ~count:0 ~pct:50. with
  | exception Invalid_argument _ -> ()
  | r -> Alcotest.failf "count=0 should raise, got %d" r);
  let s = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "percentile_sorted p50" 20.0 (Stats.percentile_sorted s 50.);
  check_float "percentile_sorted p51" 30.0 (Stats.percentile_sorted s 51.);
  check_float "percentile_sorted p0 = min" 10.0 (Stats.percentile_sorted s 0.);
  check_float "percentile_sorted p100 = max" 40.0
    (Stats.percentile_sorted s 100.)

let test_quantile_known () =
  let s = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "q0 = min" 10.0 (Stats.quantile_sorted s 0.0);
  check_float "q1 = max" 40.0 (Stats.quantile_sorted s 1.0);
  (* type-7: h = (n-1)q = 1.5 -> 20 + 0.5*(30-20) *)
  check_float "median interpolates" 25.0 (Stats.quantile_sorted s 0.5);
  check_float "q0.25" 17.5 (Stats.quantile_sorted s 0.25)

(* ---------- Report: bench/perf documents ---------- *)

let with_temp_file content f =
  let path = Filename.temp_file "rpb_report_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* A hand-built bench/perf document: two benchmarks whose four ratios all
   print differently to 2 decimals. *)
let perf_doc ~workload ~host_ok =
  let timing ms = J.Obj [ ("median", J.Float ms); ("samples", J.List [ J.Float ms ]) ] in
  let bench name (t1, tp, chk, sync) =
    J.Obj
      [
        ("name", J.Str name);
        ("scale", J.Int 3);
        ("rounds", J.Int 5);
        ("seq_ms", timing 10.0);
        ("t1_ms", timing (10.0 *. t1));
        ("tp_ms", timing (10.0 *. tp));
        ("checked_ms", timing (10.0 *. tp *. chk));
        ("sync_ms", timing (10.0 *. tp *. sync));
        ("t1_over_seq", J.Float t1);
        ("tp_over_seq", J.Float tp);
        ("checked_over_unsafe", J.Float chk);
        ("sync_over_unsafe", J.Float sync);
      ]
  in
  J.Obj
    [
      ("kind", J.Str "perf");
      ("workload", J.Str workload);
      ("traced", J.Bool false);
      ( "meta",
        J.Obj
          [
            ("p", J.Int 2); ("nproc", J.Int 2); ("ocaml", J.Str "5.1.1");
            ("git_sha", J.Str "0123abc"); ("seed", J.Int 1);
            ("host_ok", J.Bool host_ok);
          ] );
      ("correct", J.Bool true);
      ( "benchmarks",
        J.List
          [ bench "hist" (1.1111, 0.6666, 1.0444, 3.9876);
            bench "sort" (2.4711, 1.8622, 1.2377, 0.8811) ] );
    ]

let test_report_perf_docs () =
  with_temp_file (J.to_string (perf_doc ~workload:"fear" ~host_ok:false))
  @@ fun path ->
  let a = Report.load_files [ path ] in
  Alcotest.(check (list string)) "a perf document is a source" [ "perf" ]
    (List.map (fun s -> s.Report.kind) a.Report.sources);
  Alcotest.(check int) "not an error" 0 (List.length a.Report.errors);
  let md = Report.to_markdown a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("markdown contains " ^ needle) true
        (contains md needle))
    [
      (* Table 1 / Fig. 4 rows end in T1/Tseq | TP/Tseq, Fig. 5 rows in
         checked/unsafe | sync/unsafe *)
      "| hist | 3 | 10.000 | 11.111 | 6.666 | 1.11 | 0.67 |";
      "| sort | 3 | 10.000 | 24.711 | 18.622 | 2.47 | 1.86 |";
      "| 1.04 | 3.99 |";
      "| 1.24 | 0.88 |";
      "Table 1";
      "Fig. 5";
      "host_ok false";
      "TP/Tseq †";
    ];
  (* A host_ok run marks nothing; a trajectory file (one document per
     line) loads as jsonl. *)
  with_temp_file
    (J.to_string (perf_doc ~workload:"regular" ~host_ok:true)
    ^ "\n"
    ^ J.to_string (perf_doc ~workload:"irregular" ~host_ok:true)
    ^ "\n")
  @@ fun path ->
  let a = Report.load_files [ path ] in
  Alcotest.(check (list string)) "both workloads load"
    [ "regular"; "irregular" ]
    (List.map (fun p -> p.Report.workload) a.Report.perfs);
  Alcotest.(check bool) "no not-comparable mark" false
    (contains (Report.to_markdown a) "†")

let test_report_render () =
  with_temp_file (J.to_string (perf_doc ~workload:"regular" ~host_ok:true))
  @@ fun path ->
  let a = Report.load_files [ path ] in
  let html = Report.to_html a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("html contains " ^ needle) true
        (contains html needle))
    [ "<svg"; "Table 1 / Fig. 4"; "Fig. 5(a)/(b)"; "regular: P=2"; "</html>" ];
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("markdown contains " ^ needle) true
        (contains (Report.to_markdown a) needle))
    [ "## Table 1 / Fig. 4"; "## Fig. 5(a)/(b)"; "### regular: P=2" ];
  (* without perf documents the paper sections say what would fill them *)
  Alcotest.(check bool) "empty report points at bench/perf" true
    (contains (Report.to_html Report.empty) "bench/perf/run.sh")

let test_report_classify_and_errors () =
  Alcotest.(check string) "plain documents classify as bench" "bench"
    (Report.classify_doc (J.Obj [ ("results", J.List []) ]));
  Alcotest.(check string) "kind wins" "fault"
    (Report.classify_doc (J.Obj [ ("kind", J.Str "fault") ]));
  let a = Report.load_files [ "/nonexistent/artifact.json" ] in
  Alcotest.(check int) "unreadable files land in errors" 1
    (List.length a.Report.errors);
  Alcotest.(check int) "and produce no source" 0 (List.length a.Report.sources);
  (* A document of a kind the report has no reader for (an unknown kind,
     the plain benchmark records of [rpb stats --json]) is skipped into
     errors, not raised, and the other files still load. *)
  with_temp_file "{\"kind\":\"weird\"}" (fun weird ->
      with_temp_file "{\"results\":[]}" (fun plain ->
          with_temp_file "{\"kind\":\"fault\"}" (fun fault ->
              let a = Report.load_files [ weird; plain; fault ] in
              Alcotest.(check (list string)) "unknown kinds land in errors"
                [ weird; plain ] (List.map fst a.Report.errors);
              Alcotest.(check (list string)) "the known kind still loads"
                [ "fault" ]
                (List.map (fun s -> s.Report.kind) a.Report.sources))))

(* ---------- Report: the JSONL fallback parser ---------- *)

let metrics_line seq =
  Printf.sprintf
    "{\"kind\":\"metrics\",\"seq\":%d,\"ts_s\":%d.0,\"counters\":{},\"gauges\":{},\"histograms\":{}}"
    seq seq

let test_report_jsonl_fallback () =
  (* A server killed mid-write leaves a truncated final line: every whole
     line must still load, the torn one is skipped, and the file counts as
     a jsonl source rather than an error. *)
  with_temp_file
    (metrics_line 1 ^ "\n" ^ metrics_line 2 ^ "\n"
   ^ "{\"kind\":\"metrics\",\"seq\":3,\"ts_")
    (fun path ->
      let a = Report.load_files [ path ] in
      Alcotest.(check int) "whole lines load" 2 (List.length a.Report.metrics);
      Alcotest.(check int) "no error for the torn tail" 0
        (List.length a.Report.errors);
      (match a.Report.sources with
      | [ s ] -> Alcotest.(check string) "jsonl source" "jsonl" s.Report.kind
      | _ -> Alcotest.fail "one source expected"));
  (* Each line of a stream classifies on its own: a line of a kind the
     report has no reader for (a retired kind="slo" document here) is
     skipped like a junk line, and the snapshots around it still load. *)
  with_temp_file
    (metrics_line 1 ^ "\n"
   ^ "{\"kind\":\"slo\",\"spec\":\"avail:0.99\"}\n" ^ "not json at all\n"
   ^ metrics_line 2 ^ "\n")
    (fun path ->
      let a = Report.load_files [ path ] in
      Alcotest.(check int) "snapshots classified" 2
        (List.length a.Report.metrics);
      Alcotest.(check int) "slo and junk lines skipped without error" 0
        (List.length a.Report.errors));
  (* an empty file parses as nothing: an error entry, never a crash *)
  with_temp_file "" (fun path ->
      let a = Report.load_files [ path ] in
      Alcotest.(check int) "no documents" 0 (List.length a.Report.metrics);
      Alcotest.(check int) "empty file lands in errors" 1
        (List.length a.Report.errors);
      Alcotest.(check int) "and produces no source" 0
        (List.length a.Report.sources))

let test_report_serve_docs () =
  Alcotest.(check string) "serve documents classify as serve" "serve"
    (Report.classify_doc (J.Obj [ ("kind", J.Str "serve") ]));
  let doc role latency_field p95 =
    J.Obj
      [
        ("kind", J.Str "serve");
        ("role", J.Str role);
        ( "counters",
          J.Obj
            [ ("ok", J.Int 9); ("shed", J.Int 3); ("shed_replies", J.Int 3);
              ("stalled", J.Int 1); ("cancelled", J.Int 0);
              ("failed", J.Int 0); ("lost", J.Int 0) ] );
        ( latency_field,
          J.Obj
            [ ("count", J.Int 9); ("mean_ms", J.Float 4.0);
              ("p50_ms", J.Float 3.0); ("p95_ms", J.Float p95);
              ("p99_ms", J.Float (p95 +. 1.0)); ("max_ms", J.Float 20.0) ] );
      ]
  in
  let a =
    {
      Report.empty with
      Report.serves =
        [ doc "server" "exec_latency" 17.25; doc "loadgen" "latency" 12.5 ];
    }
  in
  let html = Report.to_html a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("html contains " ^ needle) true
        (contains html needle))
    [ "Serving latency"; "server"; "loadgen"; "17.25"; "12.50" ];
  let md = Report.to_markdown a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("markdown contains " ^ needle) true
        (contains md needle))
    [ "Serving latency"; "17.25"; "12.50" ];
  (* no serve artifacts: no section *)
  Alcotest.(check bool) "no section without serve docs" false
    (contains (Report.to_html Report.empty) "Serving latency")

let () =
  Alcotest.run "stats"
    [
      ( "estimators",
        [
          Alcotest.test_case "median/mean/min/max" `Quick test_median_known;
          Alcotest.test_case "type-7 quantiles" `Quick test_quantile_known;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank_known;
        ] );
      ( "report",
        [
          Alcotest.test_case "perf documents" `Quick test_report_perf_docs;
          Alcotest.test_case "html and markdown render" `Quick
            test_report_render;
          Alcotest.test_case "classification and error capture" `Quick
            test_report_classify_and_errors;
          Alcotest.test_case "serve latency section" `Quick
            test_report_serve_docs;
          Alcotest.test_case "jsonl fallback parsing" `Quick
            test_report_jsonl_fallback;
        ] );
    ]
