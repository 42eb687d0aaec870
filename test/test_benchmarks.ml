(* End-to-end tests for the RPB benchmark suite: every benchmark, every
   input, every mode switch, verified against its oracle. *)

open Rpb_benchmarks
open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

let test_registry_shape () =
  Alcotest.(check int) "14 benchmarks" 14 (List.length Registry.all);
  Alcotest.(check (list string))
    "Table 1 order"
    [ "bw"; "lrs"; "sa"; "dr"; "mis"; "mm"; "sf"; "msf"; "sort"; "dedup";
      "hist"; "isort"; "bfs"; "sssp" ]
    Registry.names;
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Common.name ^ " has inputs")
        true
        (e.Common.inputs <> []);
      Alcotest.(check bool)
        (e.Common.name ^ " has patterns")
        true
        (e.Common.patterns <> []))
    Registry.all

let test_registry_table1_claims () =
  (* Spot-check Table 1 rows reproduced by our registry. *)
  let has name p =
    match Registry.find name with
    | Some e -> List.mem p e.Common.patterns
    | None -> false
  in
  Alcotest.(check bool) "bw uses SngInd" true (has "bw" Rpb_core.Pattern.SngInd);
  Alcotest.(check bool) "sort has no AW" false (has "sort" Rpb_core.Pattern.AW);
  Alcotest.(check bool) "sort uses RngInd" true (has "sort" Rpb_core.Pattern.RngInd);
  Alcotest.(check bool) "bfs uses AW" true (has "bfs" Rpb_core.Pattern.AW);
  Alcotest.(check bool) "dedup uses AW" true (has "dedup" Rpb_core.Pattern.AW);
  (* Dynamic dispatch column: dr, bfs, sssp. *)
  let dynamic =
    List.filter_map
      (fun e -> if e.Common.dynamic then Some e.Common.name else None)
      Registry.all
  in
  Alcotest.(check (list string)) "dynamic dispatch" [ "dr"; "bfs"; "sssp" ] dynamic

let test_fig3_distribution () =
  let dist = Registry.access_distribution () in
  let total_pct = List.fold_left (fun acc (_, _, p) -> acc +. p) 0.0 dist in
  Alcotest.(check (float 1e-6)) "percentages sum to 100" 100.0 total_pct;
  List.iter
    (fun (p, c, _) ->
      Alcotest.(check bool)
        (Rpb_core.Pattern.access_name p ^ " present in suite")
        true (c > 0))
    dist;
  (* The paper's headline: irregular accesses (SngInd + RngInd + AW) are a
     substantial minority. *)
  let irregular =
    List.fold_left
      (fun acc (p, _, pct) ->
        match p with
        | Rpb_core.Pattern.SngInd | Rpb_core.Pattern.RngInd | Rpb_core.Pattern.AW ->
          acc +. pct
        | _ -> acc)
      0.0 dist
  in
  Alcotest.(check bool)
    (Printf.sprintf "irregular share substantial (%.0f%%)" irregular)
    true
    (irregular > 15.0 && irregular < 60.0)

let run_benchmark_all_modes name =
  in_pool (fun pool ->
      match Registry.find name with
      | None -> Alcotest.failf "unknown benchmark %s" name
      | Some e ->
        List.iter
          (fun input ->
            let prepared = e.Common.prepare pool ~input ~scale:0 in
            List.iter
              (fun mode ->
                prepared.Common.run_par mode;
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s/%s verifies" name input (Mode.name mode))
                  true
                  (prepared.Common.verify ()))
              Mode.all;
            (* The sequential baseline must verify too. *)
            prepared.Common.run_seq ();
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s/seq verifies" name input)
              true
              (prepared.Common.verify ()))
          e.Common.inputs)

let bench_case name =
  Alcotest.test_case name `Quick (fun () -> run_benchmark_all_modes name)

(* dedup keeps its CAS table and its locked table across runs and clears
   them per run.  One prepared instance runs every build in turn, each
   snapshot against the sequential one; then both kernels alternate between
   two inputs, so a slot left over from the other input would show. *)
let test_dedup_reuse () =
  in_pool (fun pool ->
      let e = Option.get (Registry.find "dedup") in
      let p = e.Common.prepare pool ~input:"exponential" ~scale:0 in
      p.Common.run_seq ();
      let expected = p.Common.snapshot () in
      List.iteri
        (fun i mode ->
          p.Common.run_par mode;
          Alcotest.(check bool)
            (Printf.sprintf "run %d %s = seq" i (Mode.name mode))
            true
            (p.Common.snapshot () = expected))
        Mode.[ Unsafe; Synchronized; Synchronized; Checked; Unsafe ];
      let n = 2_000 in
      let inputs = [| Array.init n (fun i -> i mod 300); Array.init n (fun i -> 1_000 + (i mod 50)) |] in
      let distinct a = List.sort_uniq compare (Array.to_list a) in
      let sorted a = List.sort compare (Array.to_list a) in
      let table = Rpb_chash.Chash.create ~capacity:n in
      let locked = Bench_dedup.locked_table n in
      for r = 0 to 3 do
        let data = inputs.(r mod 2) in
        Alcotest.(check (list int)) (Printf.sprintf "cas run %d" r) (distinct data)
          (sorted (Bench_dedup.dedup_cas pool table data));
        Alcotest.(check (list int)) (Printf.sprintf "sync run %d" r) (distinct data)
          (sorted (Bench_dedup.dedup_mutex pool locked data))
      done)

let test_mode_names () =
  List.iter
    (fun m ->
      match Mode.of_string (Mode.name m) with
      | Some m' -> Alcotest.(check string) "roundtrip" (Mode.name m) (Mode.name m')
      | None -> Alcotest.fail "mode name did not parse")
    Mode.all

let () =
  Alcotest.run "rpb_benchmarks"
    [
      ( "registry",
        [
          Alcotest.test_case "shape" `Quick test_registry_shape;
          Alcotest.test_case "table1 claims" `Quick test_registry_table1_claims;
          Alcotest.test_case "fig3 distribution" `Quick test_fig3_distribution;
          Alcotest.test_case "mode names" `Quick test_mode_names;
        ] );
      ( "text",
        [ bench_case "bw"; bench_case "lrs"; bench_case "sa" ] );
      ( "geometry", [ bench_case "dr" ] );
      ( "graph",
        [
          bench_case "mis";
          bench_case "mm";
          bench_case "sf";
          bench_case "msf";
          bench_case "bfs";
          bench_case "sssp";
        ] );
      ( "sequences",
        [
          bench_case "sort";
          bench_case "dedup";
          Alcotest.test_case "dedup reuse" `Quick test_dedup_reuse;
          bench_case "hist";
          bench_case "isort";
        ] );
    ]
