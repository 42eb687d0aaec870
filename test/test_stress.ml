(* Stress and failure-injection tests: exception storms, oversubscription,
   pathological workloads, and cross-cutting integration scenarios. *)

open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---------- Pool failure injection ---------- *)

exception Injected of int

let test_pool_exception_in_parallel_for () =
  with_pool 4 (fun pool ->
      let raised = ref false in
      (try
         Pool.run pool (fun () ->
             Pool.parallel_for ~grain:8 ~start:0 ~finish:10_000
               ~body:(fun i -> if i = 7_777 then raise (Injected i))
               pool)
       with Injected 7777 -> raised := true);
      Alcotest.(check bool) "exception surfaced" true !raised;
      (* The pool must remain usable after the failure. *)
      let x = Pool.run pool (fun () -> Pool.parallel_for_reduce ~start:0 ~finish:100 ~body:Fun.id ~combine:( + ) ~init:0 pool) in
      Alcotest.(check int) "pool alive after exception" 4950 x)

let test_pool_many_failing_tasks () =
  (* 100 runs, each with one failing join branch: every failure surfaces
     from its own run, and none poisons the next. *)
  with_pool 4 (fun pool ->
      let failures = ref 0 in
      for i = 1 to 100 do
        match
          Pool.run pool (fun () ->
              Pool.join pool (fun () -> i) (fun () -> raise (Injected i)))
        with
        | _ -> ()
        | exception Injected j when j = i -> incr failures
      done;
      Alcotest.(check int) "every failure delivered" 100 !failures)

let test_pool_deep_nesting () =
  with_pool 3 (fun pool ->
      let rec nest depth =
        if depth = 0 then 1
        else begin
          let a, b = Pool.join pool (fun () -> nest (depth - 1)) (fun () -> nest (depth - 1)) in
          a + b
        end
      in
      let x = Pool.run pool (fun () -> nest 12) in
      Alcotest.(check int) "2^12 leaves" 4096 x)

let test_pool_unbalanced_bodies () =
  (* Wildly skewed task costs exercise stealing. *)
  with_pool 4 (fun pool ->
      let n = 512 in
      let total =
        Pool.run pool (fun () ->
            Pool.parallel_for_reduce ~grain:1 ~start:0 ~finish:n
              ~body:(fun i ->
                let work = if i = 0 then 200_000 else 50 in
                let acc = ref 0 in
                for j = 1 to work do
                  acc := !acc + (Rpb_prim.Rng.hash64 j land 1)
                done;
                !acc land 1)
              ~combine:( + ) ~init:0 pool)
      in
      Alcotest.(check bool) "completes despite skew" true (total >= 0))

let test_two_pools_coexist () =
  with_pool 2 (fun p1 ->
      with_pool 2 (fun p2 ->
          let a = Pool.run p1 (fun () -> Pool.parallel_for_reduce ~start:0 ~finish:1000 ~body:Fun.id ~combine:( + ) ~init:0 p1) in
          let b = Pool.run p2 (fun () -> Pool.parallel_for_reduce ~start:0 ~finish:1000 ~body:Fun.id ~combine:( + ) ~init:0 p2) in
          Alcotest.(check int) "pool 1" 499500 a;
          Alcotest.(check int) "pool 2" 499500 b))

(* ---------- Scatter failure injection under parallelism ---------- *)

let test_checked_scatter_many_duplicates_parallel () =
  with_pool 4 (fun pool ->
      Pool.run pool (fun () ->
          let n = 50_000 in
          let rng = Rpb_prim.Rng.create 5 in
          let offsets = Rpb_prim.Rng.permutation rng n in
          (* Inject 100 random duplicates. *)
          for _ = 1 to 100 do
            offsets.(Rpb_prim.Rng.int rng n) <- Rpb_prim.Rng.int rng n
          done;
          let src = Array.make n 1 in
          let out = Array.make n 0 in
          match Rpb_core.Scatter.checked pool ~out ~offsets ~src with
          | () -> Alcotest.fail "duplicates must be detected"
          | exception Rpb_core.Scatter.Duplicate_offset _ -> ()))

let test_checked_scatter_single_duplicate_in_big_input () =
  with_pool 4 (fun pool ->
      Pool.run pool (fun () ->
          let n = 100_000 in
          let offsets = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create 6) n in
          (* Exactly one duplicate, hidden deep. *)
          offsets.(n - 1) <- offsets.(0);
          let src = Array.make n 1 in
          let out = Array.make n 0 in
          match Rpb_core.Scatter.checked pool ~out ~offsets ~src with
          | () -> Alcotest.fail "needle-in-haystack duplicate missed"
          | exception Rpb_core.Scatter.Duplicate_offset o ->
            Alcotest.(check int) "reports the duplicated offset" offsets.(0) o))

(* ---------- MultiQueue stress ---------- *)

let test_mq_burst_stress () =
  let q = Rpb_mq.Multiqueue.create ~queues:16 () in
  let s = Rpb_mq.Multiqueue.Scheduler.create q in
  let executed = Atomic.make 0 in
  (* Bursty fan-out: every task at depth d spawns 3 at depth d-1. *)
  Rpb_mq.Multiqueue.Scheduler.push s ~pri:0 7;
  Rpb_mq.Multiqueue.Scheduler.run s ~num_workers:4 ~handler:(fun s ~pri:_ d ->
      Atomic.incr executed;
      if d > 0 then
        for _ = 1 to 3 do
          Rpb_mq.Multiqueue.Scheduler.push s ~pri:d (d - 1)
        done);
  (* sum_{i=0..7} 3^i = (3^8 - 1) / 2 = 3280 *)
  Alcotest.(check int) "geometric fan-out drained" 3280 (Atomic.get executed)

let test_mq_priority_respected_in_bulk () =
  (* With a single lane, pops are exactly ordered even under load. *)
  let q = Rpb_mq.Multiqueue.create ~queues:1 () in
  let rng = Rpb_prim.Rng.create 12 in
  let n = 20_000 in
  for _ = 1 to n do
    Rpb_mq.Multiqueue.push q ~pri:(Rpb_prim.Rng.int rng 1000) 0
  done;
  let prev = ref min_int in
  let sorted = ref true in
  for _ = 1 to n do
    match Rpb_mq.Multiqueue.pop q with
    | Some (p, _) ->
      if p < !prev then sorted := false;
      prev := p
    | None -> Alcotest.fail "premature empty"
  done;
  Alcotest.(check bool) "single-lane total order" true !sorted

(* ---------- Cross-library integration ---------- *)

let test_pipeline_of_benchmark_stages () =
  (* Text -> BWT -> decode over many documents, one document per
     parallel_for leaf, each stage itself parallel (nested). *)
  with_pool 2 (fun pool ->
      Pool.run pool (fun () ->
          let docs =
            Array.init 12 (fun i -> Rpb_text.Text_gen.wiki ~size:500 ~seed:(40 + i))
          in
          let out = Array.make (Array.length docs) "" in
          Pool.parallel_for ~grain:1 ~start:0 ~finish:(Array.length docs)
            ~body:(fun i ->
              out.(i) <- Rpb_text.Bwt.decode pool (Rpb_text.Bwt.encode pool docs.(i)))
            pool;
          Alcotest.(check bool) "all roundtrips exact" true (out = docs)))

let test_graph_pipeline_end_to_end () =
  (* Generate -> MIS -> verify across several graphs, one graph per
     parallel_for leaf. *)
  with_pool 3 (fun pool ->
      Pool.run pool (fun () ->
          let valid = Array.make 3 false in
          Pool.parallel_for ~grain:1 ~start:0 ~finish:3
            ~body:(fun i ->
              let g =
                Rpb_graph.Generate.random_uniform pool ~n:300 ~m:900
                  ~seed:(60 + i) ()
              in
              let g = Rpb_graph.Csr.symmetrize pool g in
              let mis = Rpb_graph.Mis.compute pool g in
              valid.(i) <- Rpb_graph.Reference.is_maximal_independent_set g mis)
            pool;
          Array.iter (Alcotest.(check bool) "MIS valid" true) valid))

let test_full_text_stack () =
  (* One corpus through every text component. *)
  with_pool 3 (fun pool ->
      Pool.run pool (fun () ->
          let s = Rpb_text.Text_gen.wiki ~size:6_000 ~seed:70 in
          let sa = Rpb_text.Suffix_array.build pool s in
          Alcotest.(check bool) "sa valid" true (Rpb_text.Suffix_array.is_suffix_array s sa);
          let lcp = Rpb_text.Lcp.kasai pool s ~sa in
          let lrs = Rpb_text.Lcp.longest_repeated_substring pool s in
          Alcotest.(check bool) "lrs = max lcp" true
            (lrs.Rpb_text.Lcp.length = Array.fold_left max 0 lcp);
          let wc = Rpb_text.Word_count.count pool s in
          Alcotest.(check bool) "word count nonempty" true (Array.length wc > 0);
          Alcotest.(check string) "bwt roundtrip" s
            (Rpb_text.Bwt.decode pool (Rpb_text.Bwt.encode pool s))))

(* ---------- Shadow-array oracle under multi-domain stress ---------- *)

let test_shadow_no_false_positives_multi_domain () =
  (* Valid inputs hammered from 4 domains: the race detector must stay
     silent, and the write-through payload must be the correct scatter. *)
  with_pool 4 (fun pool ->
      Pool.run pool (fun () ->
          Rpb_check.Shadow.with_instrumentation true @@ fun () ->
          let rng = Rpb_prim.Rng.create 83 in
          for round = 1 to 8 do
            let n = 20_000 + Rpb_prim.Rng.int rng 20_000 in
            let offsets = Rpb_prim.Rng.permutation rng n in
            let src = Array.init n Fun.id in
            let out = Rpb_check.Shadow.create ~pool (Array.make n (-1)) in
            let mode = List.nth Rpb_core.Scatter.all_modes (round mod 4) in
            Rpb_check.Instrument.scatter mode pool ~out ~offsets ~src;
            Alcotest.(check int)
              (Printf.sprintf "round %d (%s): zero races" round
                 (Rpb_core.Scatter.mode_name mode))
              0
              (Rpb_check.Shadow.race_count out);
            (* Scattering the identity through a permutation yields its
               inverse — another permutation, so the sorted payload is the
               identity iff every slot was written exactly once. *)
            let payload = Array.copy (Rpb_check.Shadow.payload out) in
            Array.sort compare payload;
            Alcotest.(check bool) "payload is the full image" true
              (Rpb_prim.Util.array_for_all_i (fun i v -> i = v) payload)
          done))

let test_shadow_chunks_no_false_positives_multi_domain () =
  with_pool 4 (fun pool ->
      Pool.run pool (fun () ->
          Rpb_check.Shadow.with_instrumentation true @@ fun () ->
          let rng = Rpb_prim.Rng.create 89 in
          for _round = 1 to 8 do
            let n = 30_000 in
            let pieces = 1 + Rpb_prim.Rng.int rng 256 in
            let splits =
              Array.init (pieces + 1) (fun _ -> Rpb_prim.Rng.int rng (n + 1))
            in
            Array.sort compare splits;
            let out = Rpb_check.Shadow.create ~pool (Array.make n 0) in
            Rpb_check.Instrument.fill_chunks_ind pool ~out ~offsets:splits
              ~f:(fun i _ -> i);
            Alcotest.(check int) "zero races on sorted splits" 0
              (Rpb_check.Shadow.race_count out)
          done))

let test_oracle_sort_benchmark_multi_domain () =
  (* The full differential oracle on the sort benchmark: sequential,
     shuffled-deterministic and 4-domain work-stealing runs must all agree
     digest-for-digest, and the shadow self-check must hold. *)
  let report = Rpb_check.Oracle.run ~threads:4 ~scale:0 ~bench:"sort" ~seed:3 () in
  Alcotest.(check bool) "sort oracle ok" true (Rpb_check.Oracle.ok report)

(* ---------- Determinism under different worker counts ---------- *)

let test_deterministic_across_worker_counts () =
  let compute workers =
    with_pool workers (fun pool ->
        Pool.run pool (fun () ->
            let g =
              Rpb_graph.Csr.symmetrize pool
                (Rpb_graph.Generate.rmat pool ~scale:8 ~edge_factor:4 ())
            in
            let mis = Rpb_graph.Mis.compute pool g in
            let msf =
              Rpb_graph.Spanning_forest.minimum_spanning_forest pool
                (Rpb_graph.Generate.road_grid pool ~rows:12 ~cols:12 ~weighted:true ())
            in
            let sa = Rpb_text.Suffix_array.build pool "deterministic determinism" in
            (mis, msf, sa)))
  in
  let r1 = compute 1 and r2 = compute 2 and r4 = compute 4 in
  Alcotest.(check bool) "1 = 2 workers" true (r1 = r2);
  Alcotest.(check bool) "2 = 4 workers" true (r2 = r4)

(* ---------- Splitter stress: thieves vs the inline leaf chain ---------- *)

(* Three idle workers hammer the one worker splitting a grain-1 range: every
   index must run exactly once (no lost or duplicated ranges however the
   splitter and the thieves interleave), and the [Stats] task counter must
   reconcile with the leaves run.  A binary split tree over n grain-1
   leaves spawns exactly [n - 1] tasks (each [join] pushes one branch, the
   root leaf chain runs inline). *)
let test_splitter_thief_storm () =
  let n = 20_000 in
  let pool = Pool.create ~num_workers:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  for round = 1 to 3 do
    let hits = Rpb_prim.Atomic_array.make n 0 in
    let before = Pool.Stats.tasks_executed (Pool.Stats.capture pool) in
    Pool.run pool (fun () ->
        Pool.parallel_for ~grain:1 ~start:0 ~finish:n
          ~body:(fun i -> ignore (Rpb_prim.Atomic_array.fetch_and_add hits i 1))
          pool);
    let delta = Pool.Stats.tasks_executed (Pool.Stats.capture pool) - before in
    Array.iteri
      (fun i c ->
        if c <> 1 then
          Alcotest.failf "round %d: index %d ran %d times" round i c)
      (Rpb_prim.Atomic_array.to_array hits);
    Alcotest.(check int)
      (Printf.sprintf "round %d: tasks executed = leaves - 1" round)
      (n - 1) delta
  done

let () =
  Alcotest.run "rpb_stress"
    [
      ( "pool_failures",
        [
          Alcotest.test_case "exception in parallel_for" `Quick
            test_pool_exception_in_parallel_for;
          Alcotest.test_case "100 failing tasks" `Quick test_pool_many_failing_tasks;
          Alcotest.test_case "deep nesting" `Quick test_pool_deep_nesting;
          Alcotest.test_case "unbalanced bodies" `Quick test_pool_unbalanced_bodies;
          Alcotest.test_case "two pools" `Quick test_two_pools_coexist;
        ] );
      ( "scatter_failures",
        [
          Alcotest.test_case "many duplicates" `Quick
            test_checked_scatter_many_duplicates_parallel;
          Alcotest.test_case "needle duplicate" `Quick
            test_checked_scatter_single_duplicate_in_big_input;
        ] );
      ( "mq_stress",
        [
          Alcotest.test_case "burst fan-out" `Quick test_mq_burst_stress;
          Alcotest.test_case "single-lane order" `Quick
            test_mq_priority_respected_in_bulk;
        ] );
      ( "shadow_oracle",
        [
          Alcotest.test_case "no false positives (scatter)" `Quick
            test_shadow_no_false_positives_multi_domain;
          Alcotest.test_case "no false positives (chunks)" `Quick
            test_shadow_chunks_no_false_positives_multi_domain;
          Alcotest.test_case "sort differential oracle" `Quick
            test_oracle_sort_benchmark_multi_domain;
        ] );
      ( "splitter_stress",
        [
          Alcotest.test_case "thief storm: no lost ranges, counts reconcile"
            `Quick test_splitter_thief_storm;
        ] );
      ( "integration",
        [
          Alcotest.test_case "bwt pipeline" `Quick test_pipeline_of_benchmark_stages;
          Alcotest.test_case "nested graph runs" `Quick test_graph_pipeline_end_to_end;
          Alcotest.test_case "full text stack" `Quick test_full_text_stack;
          Alcotest.test_case "determinism across workers" `Quick
            test_deterministic_across_worker_counts;
        ] );
    ]
