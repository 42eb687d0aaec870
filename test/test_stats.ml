(* Tests for the statistics layer (Rpb_obs.Stats) and the report's derived
   views and artifact loading (Rpb_obs.Report).

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

(* ---------- Report: derived views ---------- *)

let mk ?(bench = "sort") ?(input = "exponential") ?(mode = "unsafe")
    ?(threads = 4) ?(scale = 0) ?(smoke = false) ?(samples = [||])
    ?(mean = 1e6) () =
  {
    J.bench;
    input;
    mode;
    scale;
    threads;
    repeats = max 1 (Array.length samples);
    mean_ns = mean;
    min_ns = mean;
    samples_ns = samples;
    smoke;
    verified = true;
    workers = [];
  }

let test_report_speedup_curves () =
  let records =
    [
      mk ~mode:"seq" ~threads:1 ~samples:[| 10e6; 10e6; 10e6 |] ();
      mk ~threads:1 ~samples:[| 10e6; 10e6; 10e6 |] ();
      mk ~threads:2 ~samples:[| 5e6; 5e6; 5e6 |] ();
      mk ~threads:4 ~samples:[| 2.5e6; 2.5e6; 2.5e6 |] ();
      (* a smoke record at another thread count must not join the curve *)
      mk ~threads:8 ~smoke:true ~samples:[| 1e6 |] ();
    ]
  in
  match Report.speedup_curves records with
  | [ c ] ->
    Alcotest.(check string) "baseline is the sequential run" "seq"
      c.Report.base_label;
    Alcotest.(check (list int)) "thread axis" [ 1; 2; 4 ]
      (List.map (fun (t, _, _) -> t) c.Report.points);
    List.iter2
      (fun expected (_, _, sp) -> check_float "speedup" expected sp)
      [ 1.0; 2.0; 4.0 ] c.Report.points
  | cs ->
    Alcotest.failf "expected exactly one curve, got %d" (List.length cs)

let test_report_overheads () =
  let records =
    [
      mk ~samples:[| 10e6; 10e6; 10e6 |] ();
      mk ~mode:"checked" ~samples:[| 12e6; 12e6; 12e6 |] ();
      mk ~mode:"sync" ~samples:[| 40e6; 40e6; 40e6 |] ();
      (* different thread count: no pairing *)
      mk ~mode:"checked" ~threads:2 ~samples:[| 1e6 |] ();
    ]
  in
  let os = Report.overheads records in
  Alcotest.(check int) "checked and sync pair with unsafe" 2
    (List.length os);
  List.iter
    (fun o ->
      match o.Report.o_vs with
      | "checked" -> check_float "checked ratio" 1.2 o.Report.o_ratio
      | "sync" -> check_float "sync ratio" 4.0 o.Report.o_ratio
      | other -> Alcotest.failf "unexpected pairing %s" other)
    os;
  (* pre-v3 records carry no samples: the stored mean is the estimate *)
  match
    Report.overheads
      [ mk ~bench:"hist" ~mean:2e6 (); mk ~bench:"hist" ~mode:"checked" ~mean:3e6 () ]
  with
  | [ o ] -> check_float "pre-v3 ratio from the means" 1.5 o.Report.o_ratio
  | os -> Alcotest.failf "expected one pre-v3 pairing, got %d" (List.length os)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_report_render () =
  let a =
    {
      Report.empty with
      Report.bench =
        [
          mk ~mode:"seq" ~threads:1 ~samples:[| 10e6 |] ();
          mk ~threads:1 ~samples:[| 10e6 |] ();
          mk ~threads:4 ~samples:[| 2.5e6 |] ();
          mk ~mode:"checked" ~threads:4 ~samples:[| 3e6 |] ();
        ];
    }
  in
  let html = Report.to_html a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("html contains " ^ needle) true
        (contains html needle))
    [ "<svg"; "Speedup curves"; "Fear-spectrum overhead"; "</html>" ];
  let md = Report.to_markdown a in
  Alcotest.(check bool) "markdown carries the overhead ratio" true
    (contains md "1.20x")

let with_temp_file content f =
  let path = Filename.temp_file "rpb_report_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let test_report_classify_and_errors () =
  Alcotest.(check string) "plain documents classify as bench" "bench"
    (Report.classify_doc (J.Obj [ ("results", J.List []) ]));
  Alcotest.(check string) "kind wins" "fault"
    (Report.classify_doc (J.Obj [ ("kind", J.Str "fault") ]));
  let a = Report.load_files [ "/nonexistent/artifact.json" ] in
  Alcotest.(check int) "unreadable files land in errors" 1
    (List.length a.Report.errors);
  Alcotest.(check int) "and produce no source" 0 (List.length a.Report.sources);
  (* A document of a kind the report has no reader for (bench/perf's
     "perf", an old "compare") is skipped into errors, not raised, and the
     other files still load. *)
  with_temp_file "{\"kind\":\"perf\",\"workload\":\"regular\"}" (fun perf ->
      with_temp_file "{\"kind\":\"weird\"}" (fun weird ->
          with_temp_file "{\"kind\":\"fault\"}" (fun fault ->
              let a = Report.load_files [ perf; weird; fault ] in
              Alcotest.(check (list string)) "unknown kinds land in errors"
                [ perf; weird ] (List.map fst a.Report.errors);
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
  (* --metrics-json streams interleave slow-request profiles and slo docs
     with the snapshots; each line classifies on its own. *)
  with_temp_file
    (metrics_line 1 ^ "\n"
   ^ "{\"kind\":\"slo\",\"spec\":\"avail:0.99\"}\n" ^ "not json at all\n"
   ^ metrics_line 2 ^ "\n")
    (fun path ->
      let a = Report.load_files [ path ] in
      Alcotest.(check int) "snapshots classified" 2
        (List.length a.Report.metrics);
      Alcotest.(check int) "slo line classified" 1 (List.length a.Report.slos);
      Alcotest.(check int) "junk line skipped without error" 0
        (List.length a.Report.errors));
  (* an empty file parses as nothing: an error entry, never a crash *)
  with_temp_file "" (fun path ->
      let a = Report.load_files [ path ] in
      Alcotest.(check int) "no documents" 0 (List.length a.Report.metrics);
      Alcotest.(check int) "empty file lands in errors" 1
        (List.length a.Report.errors);
      Alcotest.(check int) "and produces no source" 0
        (List.length a.Report.sources))

let test_report_slo_docs () =
  let doc =
    J.Obj
      [
        ("kind", J.Str "slo");
        ("spec", J.Str "avail:0.99");
        ("snapshots", J.Int 3);
        ("skipped", J.Int 1);
        ("worst", J.Str "page");
        ("violation", J.Bool true);
        ( "objectives",
          J.List
            [
              J.Obj
                [
                  ("name", J.Str "availability");
                  ("budget", J.Float 0.01);
                  ( "final",
                    J.Obj
                      [
                        ("name", J.Str "availability");
                        ("level", J.Str "page");
                        ("fast_burn", J.Float 20.0);
                        ("slow_burn", J.Float 16.0);
                        ("budget_remaining", J.Float (-0.5));
                      ] );
                ];
            ] );
        ( "series",
          J.List
            [
              J.Obj
                [
                  ("ts_s", J.Float 1.0);
                  ("levels", J.List [ J.Int 2 ]);
                  ("fast", J.List [ J.Float 20.0 ]);
                  ("slow", J.List [ J.Float 16.0 ]);
                ];
            ] );
      ]
  in
  Alcotest.(check string) "slo documents classify as slo" "slo"
    (Report.classify_doc doc);
  let a = { Report.empty with Report.slos = [ doc ] } in
  let html = Report.to_html a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("html contains " ^ needle) true
        (contains html needle))
    [ "SLO &amp; error budget"; "availability"; "violated"; "avail:0.99" ];
  let md = Report.to_markdown a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("markdown contains " ^ needle) true
        (contains md needle))
    [ "SLO & error budget"; "availability"; "page" ];
  Alcotest.(check bool) "no section without slo docs" false
    (contains (Report.to_html Report.empty) "SLO &amp; error budget")

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
          Alcotest.test_case "speedup curves" `Quick
            test_report_speedup_curves;
          Alcotest.test_case "fear-spectrum overheads" `Quick
            test_report_overheads;
          Alcotest.test_case "html and markdown render" `Quick
            test_report_render;
          Alcotest.test_case "classification and error capture" `Quick
            test_report_classify_and_errors;
          Alcotest.test_case "serve latency section" `Quick
            test_report_serve_docs;
          Alcotest.test_case "jsonl fallback parsing" `Quick
            test_report_jsonl_fallback;
          Alcotest.test_case "slo section" `Quick test_report_slo_docs;
        ] );
    ]
