(* Fault-injection and self-tests for the correctness tooling (lib/check):
   shadow-array race detection across all scatter modes and Chunks_ind, the
   deterministic sequential executor, the differential oracle, and the
   reusable mark table behind Scatter.checked. *)

open Rpb_pool
open Rpb_core
open Rpb_check

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let with_seq_exec ?seed ?shuffle f =
  Seq_exec.with_executor ?seed ?shuffle f

(* ---------- Shadow arrays: duplicate offsets ---------- *)

(* A permutation with exactly one duplicate: src positions [dup_a] and
   [dup_b] both target slot [offsets.(dup_a)]. *)
let one_duplicate rng n =
  let offsets = Rpb_prim.Rng.permutation rng n in
  let dup_a = 0 and dup_b = n - 1 in
  offsets.(dup_b) <- offsets.(dup_a);
  (offsets, dup_a, dup_b)

let scared_modes = Scatter.[ Unchecked; Atomic; Locked ]

let test_shadow_detects_duplicate_scared_modes () =
  (* In-order deterministic executor: detection AND first/second attribution
     are exact, so assert both offending indices and the task id. *)
  with_seq_exec ~seed:11 ~shuffle:false (fun pool ->
      Shadow.with_instrumentation true (fun () ->
          List.iter
            (fun mode ->
              let n = 4096 in
              let offsets, dup_a, dup_b =
                one_duplicate (Rpb_prim.Rng.create 23) n
              in
              let out = Shadow.create ~pool (Array.make n (-1)) in
              Instrument.scatter mode pool ~out ~offsets
                ~src:(Array.init n Fun.id);
              (match Shadow.races out with
               | [ r ] ->
                 Alcotest.(check int)
                   (Scatter.mode_name mode ^ ": racy slot")
                   offsets.(dup_a) r.Shadow.index;
                 Alcotest.(check (pair int int))
                   (Scatter.mode_name mode ^ ": both offending indices")
                   (dup_a, dup_b)
                   (r.Shadow.first_src, r.Shadow.second_src);
                 Alcotest.(check int)
                   (Scatter.mode_name mode ^ ": task id (worker 0)")
                   0 r.Shadow.second_task
               | rs ->
                 Alcotest.failf "%s: expected exactly 1 race, got %d"
                   (Scatter.mode_name mode) (List.length rs));
              (* The corruption is real: the duplicate slot holds the last
                 writer, the orphaned slot keeps its initial value. *)
              Alcotest.(check int) "slot holds a writer" dup_b
                (Shadow.payload out).(offsets.(dup_a)))
            scared_modes))

let test_shadow_detects_duplicate_multi_domain () =
  with_pool 4 (fun pool ->
      Pool.run pool (fun () ->
          Shadow.with_instrumentation true (fun () ->
              let n = 50_000 in
              let offsets, dup_a, dup_b =
                one_duplicate (Rpb_prim.Rng.create 31) n
              in
              let out = Shadow.create ~pool (Array.make n (-1)) in
              Instrument.unchecked pool ~out ~offsets
                ~src:(Array.init n Fun.id);
              match Shadow.races out with
              | [ r ] ->
                Alcotest.(check int) "racy slot" offsets.(dup_a) r.Shadow.index;
                Alcotest.(check (pair int int))
                  "both offending indices (unordered)"
                  (dup_a, dup_b)
                  ( min r.Shadow.first_src r.Shadow.second_src,
                    max r.Shadow.first_src r.Shadow.second_src )
              | rs ->
                Alcotest.failf "expected exactly 1 race, got %d"
                  (List.length rs))))

let test_shadow_checked_raises_before_any_race () =
  with_seq_exec ~seed:12 (fun pool ->
      Shadow.with_instrumentation true (fun () ->
          let n = 2048 in
          let offsets, _, _ = one_duplicate (Rpb_prim.Rng.create 29) n in
          let out = Shadow.create ~pool (Array.make n 0) in
          (match
             Instrument.checked pool ~out ~offsets ~src:(Array.make n 1)
           with
          | () -> Alcotest.fail "checked must reject duplicates"
          | exception Scatter.Duplicate_offset _ -> ());
          Alcotest.(check int) "no shadow write happened" 0
            (Shadow.write_count out);
          Alcotest.(check int) "no race recorded" 0 (Shadow.race_count out)))

let test_shadow_out_of_range_all_modes () =
  with_seq_exec ~seed:13 (fun pool ->
      Shadow.with_instrumentation true (fun () ->
          List.iter
            (fun mode ->
              let n = 256 in
              let offsets = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create 3) n in
              offsets.(n / 2) <- n + 7;
              let out = Shadow.create ~pool (Array.make n 0) in
              match
                Instrument.scatter mode pool ~out ~offsets
                  ~src:(Array.make n 1)
              with
              | () ->
                Alcotest.failf "%s: out-of-range offset accepted"
                  (Scatter.mode_name mode)
              | exception Scatter.Offset_out_of_range o ->
                Alcotest.(check int)
                  (Scatter.mode_name mode ^ ": reports the bad offset")
                  (n + 7) o)
            Scatter.all_modes))

(* ---------- Shadow arrays: Chunks_ind ---------- *)

let test_chunks_non_monotone_checked_raises () =
  with_seq_exec ~seed:14 (fun pool ->
      let out = Shadow.create (Array.make 16 0) in
      match
        Instrument.fill_chunks_ind pool ~out ~offsets:[| 0; 8; 4; 16 |]
          ~f:(fun i _ -> i)
      with
      | () -> Alcotest.fail "non-monotone splits accepted"
      | exception Chunks_ind.Non_monotonic i ->
        Alcotest.(check int) "offending split pair" 1 i)

let test_chunks_overlap_detected_by_shadow () =
  with_seq_exec ~seed:15 ~shuffle:false (fun pool ->
      Shadow.with_instrumentation true (fun () ->
          (* chunk 0 owns [0,8); chunk 1 is empty ([8,4) after the bad
             split); chunk 2 owns [4,16) — overlapping chunk 0 on [4,8). *)
          let out = Shadow.create ~pool (Array.make 16 0) in
          Instrument.fill_chunks_ind ~check:false pool ~out
            ~offsets:[| 0; 8; 4; 16 |]
            ~f:(fun i _ -> i);
          let races = Shadow.races out in
          Alcotest.(check int) "one race per overlapped slot" 4
            (List.length races);
          List.iter
            (fun r ->
              Alcotest.(check bool) "overlap slots" true
                (r.Shadow.index >= 4 && r.Shadow.index < 8);
              Alcotest.(check (pair int int)) "both offending chunk ids" (0, 2)
                (r.Shadow.first_src, r.Shadow.second_src))
            races))

let test_chunks_out_of_bounds_shadow_unchecked () =
  with_seq_exec ~seed:16 (fun pool ->
      let out = Shadow.create (Array.make 8 0) in
      match
        Instrument.fill_chunks_ind ~check:false pool ~out
          ~offsets:[| 0; 12 |]
          ~f:(fun _ j -> j)
      with
      | () -> Alcotest.fail "out-of-bounds chunk accepted"
      | exception Chunks_ind.Range_out_of_bounds j ->
        Alcotest.(check int) "first out-of-bounds slot" 8 j)

(* ---------- Shadow arrays: disabled path and epochs ---------- *)

let test_shadow_disabled_records_nothing () =
  with_seq_exec ~seed:17 (fun pool ->
      Shadow.with_instrumentation false @@ fun () ->
      let n = 1024 in
      let offsets, _, _ = one_duplicate (Rpb_prim.Rng.create 41) n in
      let out = Shadow.create ~pool (Array.make n (-1)) in
      Instrument.unchecked pool ~out ~offsets ~src:(Array.init n Fun.id);
      Alcotest.(check int) "no writes recorded" 0 (Shadow.write_count out);
      Alcotest.(check int) "no races recorded" 0 (Shadow.race_count out);
      (* ... but the payload was written through. *)
      Alcotest.(check bool) "payload written" true
        (Array.exists (fun v -> v >= 0) (Shadow.payload out)))

let test_shadow_epochs_separate_operations () =
  with_seq_exec ~seed:18 (fun pool ->
      Shadow.with_instrumentation true (fun () ->
          let n = 512 in
          let offsets = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create 43) n in
          let out = Shadow.create ~pool (Array.make n 0) in
          (* The same valid scatter twice: every slot is written in both
             operations, which must NOT count as races. *)
          Instrument.unchecked pool ~out ~offsets ~src:(Array.make n 1);
          Instrument.unchecked pool ~out ~offsets ~src:(Array.make n 2);
          Alcotest.(check int) "two epochs, zero races" 0
            (Shadow.race_count out);
          Alcotest.(check int) "all writes recorded" (2 * n)
            (Shadow.write_count out)))

(* ---------- Deterministic sequential executor ---------- *)

let test_seq_exec_replays_identically () =
  let digest pool =
    (* Order-dependent accumulation: records the actual visit order. *)
    let log = ref [] in
    Pool.parallel_for ~grain:16 ~start:0 ~finish:1000
      ~body:(fun i -> log := i :: !log)
      pool;
    let a, b =
      Pool.join pool (fun () -> [| 1 |]) (fun () -> [| 2 |])
    in
    Array.concat [ Array.of_list !log; a; b ]
  in
  Alcotest.(check bool) "same seed, same schedule" true
    (Seq_exec.replays_equal ~seed:5 digest);
  (* Different seeds must produce different leaf orders (with overwhelming
     probability for 63 leaves). *)
  let run seed = Seq_exec.with_executor ~seed digest in
  Alcotest.(check bool) "different seed, different schedule" false
    (run 5 = run 6)

let test_seq_exec_shuffled_covers_all_indices () =
  with_seq_exec ~seed:19 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Pool.parallel_for ~start:0 ~finish:n
        ~body:(fun i -> hits.(i) <- hits.(i) + 1)
        pool;
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (( = ) 1) hits))

let test_seq_exec_reduce_matches_inorder () =
  (* Associative but non-commutative combine: leaf shuffling must not change
     the result because combination happens in index order. *)
  let got =
    Seq_exec.with_executor ~seed:20 (fun pool ->
        let s =
          Pool.parallel_for_reduce ~grain:7 ~start:0 ~finish:200
            ~body:string_of_int ~combine:( ^ ) ~init:"" pool
        in
        Array.init (String.length s) (fun i -> Char.code s.[i]))
  in
  let expected =
    let b = Buffer.create 512 in
    for i = 0 to 199 do
      Buffer.add_string b (string_of_int i)
    done;
    Array.init (Buffer.length b) (fun i -> Char.code (Buffer.contents b).[i])
  in
  Alcotest.(check bool) "non-commutative reduce is order-stable" true
    (got = expected)

let test_seq_exec_join_flips_order () =
  (* Over many joins, a shuffled executor must execute g-before-f at least
     once and f-before-g at least once. *)
  with_seq_exec ~seed:21 (fun pool ->
      let f_first = ref false and g_first = ref false in
      for _ = 1 to 64 do
        let order = ref [] in
        ignore
          (Pool.join pool
             (fun () -> order := `F :: !order)
             (fun () -> order := `G :: !order));
        match List.rev !order with
        | `F :: _ -> f_first := true
        | `G :: _ -> g_first := true
        | [] -> ()
      done;
      Alcotest.(check (pair bool bool)) "both orders exercised" (true, true)
        (!f_first, !g_first))

let test_seq_exec_is_deterministic_flag () =
  let p = Seq_exec.create ~seed:1 () in
  let q = Pool.create ~num_workers:2 () in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p;
      Pool.shutdown q)
    (fun () ->
      Alcotest.(check bool) "seq_exec deterministic" true (Pool.deterministic p);
      Alcotest.(check bool) "ws pool not" false (Pool.deterministic q))

(* ---------- Mark-table reuse (Scatter.checked) ---------- *)

let test_mark_table_idempotent_across_calls () =
  with_pool 2 (fun pool ->
      Pool.run pool (fun () ->
          let rng = Rpb_prim.Rng.create 47 in
          for round = 1 to 40 do
            (* Alternate sizes so the cached table both grows and shrinks
               relative to n; alternate valid/duplicate inputs so stale
               marks from a failed call could leak into the next one. *)
            let n = if round mod 3 = 0 then 3000 else 700 in
            let offsets = Rpb_prim.Rng.permutation rng n in
            Scatter.validate_offsets pool ~n offsets;
            (* valid: must pass *)
            let dup = Array.copy offsets in
            dup.(n - 1) <- dup.(0);
            match Scatter.validate_offsets pool ~n dup with
            | () -> Alcotest.failf "round %d: duplicate not detected" round
            | exception Scatter.Duplicate_offset o ->
              Alcotest.(check int) "reports the duplicated value" dup.(0) o
          done))

let test_mark_table_reuses_allocation () =
  (* One worker keeps parallel_for on the caller (no task closures), so
     Gc.allocated_bytes measures the validation itself.  With the cached
     table a call allocates O(1); without it, 2 x n words. *)
  with_pool 1 (fun pool ->
      Pool.run pool (fun () ->
          let n = 50_000 in
          let offsets = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create 53) n in
          (* Warm the cache to n. *)
          Scatter.validate_offsets pool ~n offsets;
          let before = Gc.allocated_bytes () in
          for _ = 1 to 20 do
            Scatter.validate_offsets pool ~n offsets
          done;
          let per_call = (Gc.allocated_bytes () -. before) /. 20.0 in
          (* A fresh table would be 2 * 50_000 * 8 = 800_000 bytes/call. *)
          Alcotest.(check bool)
            (Printf.sprintf "per-call allocation small (%.0f bytes)" per_call)
            true
            (per_call < 50_000.0)))

let test_mark_table_concurrent_validations () =
  (* Two pools validating at once: one takes the shared cache, the other
     silently falls back to a private table — both must stay correct. *)
  with_pool 2 (fun p1 ->
      with_pool 2 (fun p2 ->
          let n = 20_000 in
          let off1 = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create 59) n in
          let off2 = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create 61) n in
          let bad = Array.copy off2 in
          bad.(7) <- bad.(9);
          let d1 = Domain.spawn (fun () ->
              Pool.run p1 (fun () ->
                  for _ = 1 to 10 do
                    Scatter.validate_offsets p1 ~n off1
                  done;
                  true))
          in
          let ok2 =
            Pool.run p2 (fun () ->
                let ok = ref true in
                for _ = 1 to 10 do
                  Scatter.validate_offsets p2 ~n off2;
                  (match Scatter.validate_offsets p2 ~n bad with
                   | () -> ok := false
                   | exception Scatter.Duplicate_offset _ -> ())
                done;
                !ok)
          in
          Alcotest.(check bool) "pool 1 valid inputs pass" true (Domain.join d1);
          Alcotest.(check bool) "pool 2 detects duplicates" true ok2))

(* ---------- The differential oracle ---------- *)

let test_oracle_single_bench_ok () =
  let report = Oracle.run ~threads:3 ~scale:0 ~bench:"isort" ~seed:7 () in
  Alcotest.(check bool) "isort oracle ok" true (Oracle.ok report);
  Alcotest.(check int) "3 executors x 3 modes" 9
    (List.length report.Oracle.outcomes);
  Alcotest.(check int) "no false-positive races" 0
    (List.length report.Oracle.shadow_races);
  Alcotest.(check bool) "canary caught" true report.Oracle.canary_ok

let test_oracle_report_json_roundtrip_fields () =
  let report = Oracle.run ~threads:2 ~scale:0 ~bench:"hist" ~seed:9 () in
  let json = Oracle.to_json report in
  let module J = Rpb_benchmarks.Bench_json in
  let reparsed = J.of_string (J.to_string json) in
  Alcotest.(check int) "schema version survives" J.schema_version
    (J.get_int (J.member "schema_version" reparsed));
  Alcotest.(check string) "kind marker" "check"
    (J.get_str (J.member "kind" reparsed));
  Alcotest.(check bool) "ok flag" (Oracle.ok report)
    (J.get_bool (J.member "ok" reparsed));
  Alcotest.(check int) "all outcomes serialized"
    (List.length report.Oracle.outcomes)
    (List.length (J.get_list (J.member "oracle" reparsed)))

let test_oracle_detects_order_sensitivity () =
  (* A deliberately order-sensitive computation: under the shuffled executor
     the "last writer" of a shared cell differs from the in-order run.  This
     is the class of bug the oracle exists to expose; assert the harness's
     raw ingredients do expose it. *)
  let last_writer seed =
    Seq_exec.with_executor ~seed (fun pool ->
        let cell = ref (-1) in
        Pool.parallel_for ~grain:1 ~start:0 ~finish:64
          ~body:(fun i -> cell := i)
          pool;
        [| !cell |])
  in
  let in_order =
    Seq_exec.with_executor ~seed:0 ~shuffle:false (fun pool ->
        let cell = ref (-1) in
        Pool.parallel_for ~grain:1 ~start:0 ~finish:64
          ~body:(fun i -> cell := i)
          pool;
        [| !cell |])
  in
  Alcotest.(check bool) "in-order last writer is 63" true (in_order = [| 63 |]);
  (* Among a handful of seeds, at least one shuffled schedule must disagree
     with the in-order result. *)
  let disagrees = List.exists (fun s -> last_writer s <> [| 63 |]) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "shuffled schedule exposes order-sensitivity" true
    disagrees

(* The work-stealing pool must produce a clean oracle verdict against the
   deterministic reference digests, so a scheduler that reorders, drops or
   duplicates work cannot pass.  One cheap benchmark per fear tier keeps the
   sweep fast. *)
let test_oracle_clean_on_work_stealing_pool () =
  List.iter
    (fun bench ->
      let report = Oracle.run ~threads:3 ~scale:0 ~bench ~seed:11 () in
      if not (Oracle.ok report) then
        Alcotest.failf "pool fails the oracle on %s:\n%s" bench
          (Oracle.summary report))
    [ "isort"; "sa"; "hist" ]

(* ---------- The fault sweep ---------- *)

let test_fault_sweep_single_bench () =
  let report =
    Oracle.fault_sweep ~threads:3 ~scale:0 ~deadline:20. ~bench:"hist" ~seed:5 ()
  in
  Alcotest.(check bool) "hist fault sweep ok" true (Oracle.fault_ok report);
  Alcotest.(check int) "one run per schedule"
    (List.length Oracle.fault_schedules)
    (List.length report.Oracle.fr_outcomes);
  (* The contract behind "ok", spelled out: completed runs carry correct
     digests, failed runs raised, and the pool survived every run. *)
  List.iter
    (fun (o : Oracle.fault_outcome) ->
      if o.Oracle.f_completed then begin
        Alcotest.(check bool) "digest intact" true o.Oracle.f_digest_equal;
        Alcotest.(check bool) "verified" true o.Oracle.f_verified
      end
      else
        Alcotest.(check bool) "raised cleanly" true (o.Oracle.f_raised <> None);
      Alcotest.(check bool) "pool reusable" true o.Oracle.f_pool_reusable)
    report.Oracle.fr_outcomes;
  (* The seeded schedules must actually interfere: across three schedules at
     least one injection has to fire. *)
  Alcotest.(check bool) "injections fired" true
    (List.exists (fun o -> o.Oracle.f_injected > 0) report.Oracle.fr_outcomes)

let test_fault_sweep_deterministic () =
  let digest r =
    List.map
      (fun (o : Oracle.fault_outcome) ->
        (o.Oracle.f_bench, o.Oracle.f_schedule, o.Oracle.f_fault_seed))
      r.Oracle.fr_outcomes
  in
  let a = Oracle.fault_sweep ~threads:2 ~scale:0 ~bench:"dedup" ~seed:3 () in
  let b = Oracle.fault_sweep ~threads:2 ~scale:0 ~bench:"dedup" ~seed:3 () in
  Alcotest.(check bool) "equal seeds, equal schedules" true (digest a = digest b)

let test_fault_sweep_json_fields () =
  let report = Oracle.fault_sweep ~threads:2 ~scale:0 ~bench:"sort" ~seed:1 () in
  let module J = Rpb_benchmarks.Bench_json in
  let reparsed = J.of_string (J.to_string (Oracle.fault_to_json report)) in
  Alcotest.(check int) "schema version survives" J.schema_version
    (J.get_int (J.member "schema_version" reparsed));
  Alcotest.(check string) "kind marker" "fault"
    (J.get_str (J.member "kind" reparsed));
  Alcotest.(check bool) "ok flag" (Oracle.fault_ok report)
    (J.get_bool (J.member "ok" reparsed));
  Alcotest.(check int) "all runs serialized"
    (List.length report.Oracle.fr_outcomes)
    (List.length (J.get_list (J.member "runs" reparsed)))

let () =
  Alcotest.run "rpb_check"
    [
      ( "shadow_sngind",
        [
          Alcotest.test_case "duplicate detected (scared modes)" `Quick
            test_shadow_detects_duplicate_scared_modes;
          Alcotest.test_case "duplicate detected (multi-domain)" `Quick
            test_shadow_detects_duplicate_multi_domain;
          Alcotest.test_case "checked raises first" `Quick
            test_shadow_checked_raises_before_any_race;
          Alcotest.test_case "out of range all modes" `Quick
            test_shadow_out_of_range_all_modes;
        ] );
      ( "shadow_rngind",
        [
          Alcotest.test_case "non-monotone raises" `Quick
            test_chunks_non_monotone_checked_raises;
          Alcotest.test_case "overlap detected" `Quick
            test_chunks_overlap_detected_by_shadow;
          Alcotest.test_case "out of bounds" `Quick
            test_chunks_out_of_bounds_shadow_unchecked;
        ] );
      ( "shadow_switch",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_shadow_disabled_records_nothing;
          Alcotest.test_case "epochs separate ops" `Quick
            test_shadow_epochs_separate_operations;
        ] );
      ( "seq_exec",
        [
          Alcotest.test_case "replays identically" `Quick
            test_seq_exec_replays_identically;
          Alcotest.test_case "covers all indices" `Quick
            test_seq_exec_shuffled_covers_all_indices;
          Alcotest.test_case "reduce order-stable" `Quick
            test_seq_exec_reduce_matches_inorder;
          Alcotest.test_case "join flips order" `Quick
            test_seq_exec_join_flips_order;
          Alcotest.test_case "deterministic flag" `Quick
            test_seq_exec_is_deterministic_flag;
        ] );
      ( "mark_table",
        [
          Alcotest.test_case "idempotent across calls" `Quick
            test_mark_table_idempotent_across_calls;
          Alcotest.test_case "reuses allocation" `Quick
            test_mark_table_reuses_allocation;
          Alcotest.test_case "concurrent validations" `Quick
            test_mark_table_concurrent_validations;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "single bench ok" `Quick test_oracle_single_bench_ok;
          Alcotest.test_case "json fields" `Quick
            test_oracle_report_json_roundtrip_fields;
          Alcotest.test_case "clean on the work-stealing pool" `Quick
            test_oracle_clean_on_work_stealing_pool;
          Alcotest.test_case "order sensitivity exposed" `Quick
            test_oracle_detects_order_sensitivity;
        ] );
      ( "fault_sweep",
        [
          Alcotest.test_case "single bench contract" `Quick
            test_fault_sweep_single_bench;
          Alcotest.test_case "deterministic schedules" `Quick
            test_fault_sweep_deterministic;
          Alcotest.test_case "json fields" `Quick test_fault_sweep_json_fields;
        ] );
    ]
