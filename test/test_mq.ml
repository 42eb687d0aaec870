(* Tests for the binary heap and the MultiQueue relaxed priority scheduler. *)

open Rpb_mq

(* ---------- Binary_heap ---------- *)

let test_heap_ordering () =
  let h = Binary_heap.create () in
  List.iter (fun p -> Binary_heap.push h ~pri:p (p * 10)) [ 5; 1; 4; 2; 3 ];
  Alcotest.(check int) "size" 5 (Binary_heap.size h);
  let drained = Binary_heap.to_sorted_list h in
  Alcotest.(check (list (pair int int)))
    "priority order"
    [ (1, 10); (2, 20); (3, 30); (4, 40); (5, 50) ]
    drained;
  Alcotest.(check bool) "empty after drain" true (Binary_heap.is_empty h)

let test_heap_peek () =
  let h = Binary_heap.create () in
  Alcotest.(check (option (pair int int))) "peek empty" None (Binary_heap.peek_min h);
  Binary_heap.push h ~pri:7 70;
  Binary_heap.push h ~pri:3 30;
  Alcotest.(check (option (pair int int))) "peek" (Some (3, 30)) (Binary_heap.peek_min h);
  Alcotest.(check int) "peek does not remove" 2 (Binary_heap.size h)

let test_heap_duplicate_priorities () =
  let h = Binary_heap.create () in
  List.iter (fun v -> Binary_heap.push h ~pri:1 v) [ 100; 200; 300 ];
  let vs = List.map snd (Binary_heap.to_sorted_list h) in
  Alcotest.(check (list int)) "all values present" [ 100; 200; 300 ]
    (List.sort compare vs)

let test_heap_growth () =
  let h = Binary_heap.create ~capacity:2 () in
  for i = 999 downto 0 do
    Binary_heap.push h ~pri:i i
  done;
  Alcotest.(check int) "size" 1000 (Binary_heap.size h);
  let sorted = Binary_heap.to_sorted_list h in
  Alcotest.(check int) "drained" 1000 (List.length sorted);
  Alcotest.(check bool) "ordered" true
    (List.for_all2 (fun (p, v) i -> p = i && v = i) sorted (List.init 1000 Fun.id))

let prop_heap_matches_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:50
    QCheck.(list (int_bound 1000))
    (fun ps ->
      let h = Binary_heap.create () in
      List.iter (fun p -> Binary_heap.push h ~pri:p p) ps;
      let drained = List.map fst (Binary_heap.to_sorted_list h) in
      drained = List.sort compare ps)

(* ---------- Multiqueue ---------- *)

let test_mq_push_pop_single_lane () =
  let q = Multiqueue.create ~queues:1 () in
  Multiqueue.push q ~pri:5 50;
  Multiqueue.push q ~pri:1 10;
  Alcotest.(check (option (pair int int))) "exact min on 1 lane" (Some (1, 10))
    (Multiqueue.pop q);
  Alcotest.(check (option (pair int int))) "next" (Some (5, 50)) (Multiqueue.pop q);
  Alcotest.(check (option (pair int int))) "empty" None (Multiqueue.pop q)

let test_mq_no_loss_no_dup_sequential () =
  let q = Multiqueue.create ~queues:8 () in
  let n = 5_000 in
  for i = 0 to n - 1 do
    Multiqueue.push q ~pri:i i
  done;
  Alcotest.(check int) "size" n (Multiqueue.size q);
  let seen = Array.make n 0 in
  let rec drain () =
    match Multiqueue.pop q with
    | Some (_, v) ->
      seen.(v) <- seen.(v) + 1;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check bool) "each exactly once" true (Array.for_all (fun c -> c = 1) seen);
  Alcotest.(check bool) "empty" true (Multiqueue.is_empty q)

let test_mq_relaxed_rank_quality () =
  (* Pops must be approximately ordered: with best-of-two on 4 lanes the
     average inversion distance is small.  We assert a loose bound to avoid
     flakiness while still catching a broken (e.g. LIFO) implementation. *)
  let q = Multiqueue.create ~queues:4 () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Multiqueue.push q ~pri:i i
  done;
  let displacement = ref 0 in
  for k = 0 to n - 1 do
    match Multiqueue.pop q with
    | Some (p, _) -> displacement := !displacement + abs (p - k)
    | None -> Alcotest.fail "premature empty"
  done;
  let avg = float_of_int !displacement /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "average rank error small (%.1f)" avg)
    true (avg < 64.0)

let test_mq_concurrent_producers_consumers () =
  let q = Multiqueue.create ~queues:8 () in
  let n_per = 5_000 and nprod = 3 in
  let total = n_per * nprod in
  let seen = Rpb_prim.Atomic_array.make total 0 in
  let producers_done = Atomic.make 0 in
  let consumed = Atomic.make 0 in
  let producers =
    List.init nprod (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to n_per - 1 do
              let v = (d * n_per) + i in
              Multiqueue.push q ~pri:(Rpb_prim.Rng.hash64 v mod 1000) v
            done;
            Atomic.incr producers_done))
  in
  let consumers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let rec go () =
              match Multiqueue.pop q with
              | Some (_, v) ->
                ignore (Rpb_prim.Atomic_array.fetch_and_add seen v 1);
                Atomic.incr consumed;
                go ()
              | None ->
                if Atomic.get producers_done < nprod || Atomic.get consumed < total
                then begin
                  Domain.cpu_relax ();
                  if Atomic.get consumed < total then go ()
                end
            in
            go ()))
  in
  List.iter Domain.join producers;
  List.iter Domain.join consumers;
  let bad = ref 0 in
  for v = 0 to total - 1 do
    if Rpb_prim.Atomic_array.get seen v <> 1 then incr bad
  done;
  Alcotest.(check int) "exactly once across domains" 0 !bad

(* ---------- Scheduler ---------- *)

let test_scheduler_drains_transitive_work () =
  (* Each task with value v > 0 spawns v-1; counts all executions. *)
  let q = Multiqueue.create ~queues:4 () in
  let s = Multiqueue.Scheduler.create q in
  let executed = Atomic.make 0 in
  Multiqueue.Scheduler.push s ~pri:0 6;
  Multiqueue.Scheduler.run s ~num_workers:3 ~handler:(fun s ~pri:_ v ->
      Atomic.incr executed;
      if v > 1 then Multiqueue.Scheduler.push s ~pri:0 (v - 1));
  (* 6 -> 5 -> ... -> 1: six executions. *)
  Alcotest.(check int) "chain executed" 6 (Atomic.get executed);
  Alcotest.(check bool) "queue drained" true (Multiqueue.is_empty q)

let test_scheduler_fanout () =
  let q = Multiqueue.create ~queues:8 () in
  let s = Multiqueue.Scheduler.create q in
  let executed = Atomic.make 0 in
  (* A binary fan-out tree of depth 10: 2^11 - 1 tasks. *)
  Multiqueue.Scheduler.push s ~pri:0 10;
  Multiqueue.Scheduler.run s ~num_workers:4 ~handler:(fun s ~pri:_ depth ->
      Atomic.incr executed;
      if depth > 0 then begin
        Multiqueue.Scheduler.push s ~pri:depth (depth - 1);
        Multiqueue.Scheduler.push s ~pri:depth (depth - 1)
      end);
  Alcotest.(check int) "tree size" ((1 lsl 11) - 1) (Atomic.get executed)

let test_scheduler_propagates_exception () =
  let q = Multiqueue.create ~queues:2 () in
  let s = Multiqueue.Scheduler.create q in
  Multiqueue.Scheduler.push s ~pri:0 1;
  Alcotest.check_raises "handler failure" (Failure "task boom") (fun () ->
      Multiqueue.Scheduler.run s ~num_workers:2 ~handler:(fun _ ~pri:_ _ ->
          failwith "task boom"))

let test_scheduler_single_worker () =
  let q = Multiqueue.create ~queues:2 () in
  let s = Multiqueue.Scheduler.create q in
  let acc = ref 0 in
  for i = 1 to 10 do
    Multiqueue.Scheduler.push s ~pri:i i
  done;
  Multiqueue.Scheduler.run s ~num_workers:1 ~handler:(fun _ ~pri:_ v -> acc := !acc + v);
  Alcotest.(check int) "all handled" 55 !acc

(* One worker drains a private heap, so it hands tasks out in exact priority
   order; tasks the handler pushes join that order. *)
let test_scheduler_single_worker_heap_order () =
  let q = Multiqueue.create ~queues:4 () in
  let s = Multiqueue.Scheduler.create q in
  let rng = Rpb_prim.Rng.create 17 in
  let seeds = 200 in
  for _ = 1 to seeds do
    Multiqueue.Scheduler.push s ~pri:(Rpb_prim.Rng.int rng 1_000) 2
  done;
  let handled = ref [] in
  Multiqueue.Scheduler.run s ~num_workers:1 ~handler:(fun s ~pri v ->
      handled := pri :: !handled;
      (* Each seed spawns two children at a higher priority, which spawn
         one grandchild each. *)
      if v > 0 then begin
        Multiqueue.Scheduler.push s ~pri:(pri + 1 + Rpb_prim.Rng.int rng 50) (v - 1);
        Multiqueue.Scheduler.push s ~pri:(pri + 1 + Rpb_prim.Rng.int rng 50) (v - 1)
      end);
  let order = List.rev !handled in
  Alcotest.(check int) "every task ran" (seeds * 7) (List.length order);
  Alcotest.(check bool) "non-decreasing priorities" true
    (List.sort compare order = order);
  Alcotest.(check bool) "queue drained" true (Multiqueue.is_empty q)

(* A failed run re-raises, drops the tasks still queued, and leaves the
   scheduler ready for the next run, with one worker and with two. *)
let test_scheduler_reusable_after_exception () =
  List.iter
    (fun num_workers ->
      let q = Multiqueue.create ~queues:2 () in
      let s = Multiqueue.Scheduler.create q in
      for i = 1 to 20 do
        Multiqueue.Scheduler.push s ~pri:i i
      done;
      Alcotest.check_raises "handler failure" (Failure "task boom") (fun () ->
          Multiqueue.Scheduler.run s ~num_workers ~handler:(fun s ~pri:_ v ->
              if v = 1 then failwith "task boom"
              else Multiqueue.Scheduler.push s ~pri:v (v - 1)));
      Alcotest.(check bool) "queue emptied" true (Multiqueue.is_empty q);
      let acc = Atomic.make 0 in
      for i = 1 to 10 do
        Multiqueue.Scheduler.push s ~pri:i i
      done;
      Multiqueue.Scheduler.run s ~num_workers ~handler:(fun _ ~pri:_ v ->
          ignore (Atomic.fetch_and_add acc v));
      Alcotest.(check int)
        (Printf.sprintf "second run at %d workers" num_workers)
        55 (Atomic.get acc))
    [ 1; 2 ]

(* bfs and sssp at P = 1 take the private-heap path end to end. *)
let test_traversals_single_worker () =
  let pool = Rpb_pool.Pool.create ~num_workers:1 () in
  Fun.protect ~finally:(fun () -> Rpb_pool.Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun name ->
      let load weighted =
        Rpb_pool.Pool.run pool (fun () ->
            Rpb_benchmarks.Graph_inputs.load pool ~name ~scale:0 ~weighted
              ~symmetric:true)
      in
      let g = load false in
      Alcotest.(check (array int)) (name ^ " bfs")
        (Rpb_graph.Reference.bfs_distances g ~src:0)
        (Rpb_pool.Pool.run pool (fun () -> Rpb_graph.Traverse.bfs pool g ~src:0));
      let g = load true in
      Alcotest.(check (array int)) (name ^ " sssp")
        (Rpb_graph.Reference.dijkstra g ~src:0)
        (Rpb_pool.Pool.run pool (fun () -> Rpb_graph.Traverse.sssp pool g ~src:0)))
    [ "link"; "road" ]

(* ---------- Scheduler on the pool ---------- *)

module Pool = Rpb_pool.Pool

let on_pool workers f =
  let pool = Pool.create ~num_workers:workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Pool.run pool (fun () -> f pool)

(* A binary tree of [n] ids rooted at 0: task [v] pushes [2v + 1] and
   [2v + 2] below [n], so ids are pushed from every worker's buffer. *)
let test_pool_exactly_once workers () =
  on_pool workers @@ fun pool ->
  let n = 20_000 in
  let seen = Rpb_prim.Atomic_array.make n 0 in
  let q = Multiqueue.create ~queues:(4 * workers) () in
  let s = Multiqueue.Scheduler.create q in
  Multiqueue.Scheduler.push s ~pri:0 0;
  Multiqueue.Scheduler.run ~pool s ~num_workers:workers
    ~handler:(fun s ~pri v ->
      ignore (Rpb_prim.Atomic_array.fetch_and_add seen v 1);
      List.iter
        (fun c -> if c < n then Multiqueue.Scheduler.push s ~pri:(pri + 1) c)
        [ (2 * v) + 1; (2 * v) + 2 ]);
  let bad = ref 0 in
  for v = 0 to n - 1 do
    if Rpb_prim.Atomic_array.get seen v <> 1 then incr bad
  done;
  Alcotest.(check int) "ids not handled exactly once" 0 !bad;
  Alcotest.(check bool) "queue drained" true (Multiqueue.is_empty q)

(* A chain keeps one task in flight at a time, so the other workers wait on
   the in-flight counter with empty lanes; the run must still end, and
   again at once when nothing was pushed. *)
let test_pool_termination workers () =
  on_pool workers @@ fun pool ->
  let s = Multiqueue.Scheduler.create (Multiqueue.create ~queues:(4 * workers) ()) in
  let executed = Atomic.make 0 in
  Multiqueue.Scheduler.run ~pool s ~num_workers:workers ~handler:(fun _ ~pri:_ _ ->
      Atomic.incr executed);
  Alcotest.(check int) "empty run" 0 (Atomic.get executed);
  Multiqueue.Scheduler.push s ~pri:0 500;
  Multiqueue.Scheduler.run ~pool s ~num_workers:workers ~handler:(fun s ~pri v ->
      Atomic.incr executed;
      if v > 0 then Multiqueue.Scheduler.push s ~pri:(pri + 1) (v - 1));
  Alcotest.(check int) "chain executed" 501 (Atomic.get executed)

(* The failing task raises while other workers are busy in their own
   handlers; [run] re-raises only once none is left, nothing runs after it,
   and the same scheduler then runs a fresh batch to completion. *)
let test_pool_exception_then_rerun workers () =
  on_pool workers @@ fun pool ->
  let q = Multiqueue.create ~queues:(4 * workers) () in
  let s = Multiqueue.Scheduler.create q in
  let active = Atomic.make 0 and executed = Atomic.make 0 in
  for i = 1 to 200 do
    Multiqueue.Scheduler.push s ~pri:i i
  done;
  Alcotest.check_raises "handler failure" (Failure "task boom") (fun () ->
      Multiqueue.Scheduler.run ~pool s ~num_workers:workers
        ~handler:(fun s ~pri:_ v ->
          Atomic.incr active;
          Atomic.incr executed;
          if v = 50 then begin
            Atomic.decr active;
            failwith "task boom"
          end;
          Unix.sleepf 1e-4;
          Multiqueue.Scheduler.push s ~pri:(v + 1000) (v + 1000);
          Atomic.decr active));
  Alcotest.(check int) "no handler still running" 0 (Atomic.get active);
  let after = Atomic.get executed in
  Unix.sleepf 0.01;
  Alcotest.(check int) "no handler ran after the raise" after (Atomic.get executed);
  Alcotest.(check bool) "queue emptied" true (Multiqueue.is_empty q);
  let acc = Atomic.make 0 in
  for i = 1 to 100 do
    Multiqueue.Scheduler.push s ~pri:i i
  done;
  Multiqueue.Scheduler.run ~pool s ~num_workers:workers ~handler:(fun _ ~pri:_ v ->
      ignore (Atomic.fetch_and_add acc v));
  Alcotest.(check int) "second run" 5050 (Atomic.get acc)

(* A one-worker pool takes the private-heap path: exact priority order,
   children included. *)
let test_pool_single_worker_order () =
  on_pool 1 @@ fun pool ->
  let s = Multiqueue.Scheduler.create (Multiqueue.create ~queues:4 ()) in
  let rng = Rpb_prim.Rng.create 29 in
  for _ = 1 to 300 do
    Multiqueue.Scheduler.push s ~pri:(Rpb_prim.Rng.int rng 10_000) 1
  done;
  let handled = ref [] in
  Multiqueue.Scheduler.run ~pool s ~num_workers:(Pool.size pool)
    ~handler:(fun s ~pri v ->
      handled := pri :: !handled;
      if v > 0 then Multiqueue.Scheduler.push s ~pri:(pri + 1 + Rpb_prim.Rng.int rng 100) 0);
  let order = List.rev !handled in
  Alcotest.(check int) "every task ran" 600 (List.length order);
  Alcotest.(check bool) "non-decreasing priorities" true
    (List.sort compare order = order)

let () =
  Alcotest.run "rpb_mq"
    [
      ( "binary_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "duplicate priorities" `Quick
            test_heap_duplicate_priorities;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          QCheck_alcotest.to_alcotest prop_heap_matches_sorted;
        ] );
      ( "multiqueue",
        [
          Alcotest.test_case "single lane exact" `Quick test_mq_push_pop_single_lane;
          Alcotest.test_case "no loss/dup" `Quick test_mq_no_loss_no_dup_sequential;
          Alcotest.test_case "rank quality" `Quick test_mq_relaxed_rank_quality;
          Alcotest.test_case "concurrent producers/consumers" `Quick
            test_mq_concurrent_producers_consumers;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "transitive drain" `Quick
            test_scheduler_drains_transitive_work;
          Alcotest.test_case "fanout tree" `Quick test_scheduler_fanout;
          Alcotest.test_case "exception propagates" `Quick
            test_scheduler_propagates_exception;
          Alcotest.test_case "single worker" `Quick test_scheduler_single_worker;
          Alcotest.test_case "single worker heap order" `Quick
            test_scheduler_single_worker_heap_order;
          Alcotest.test_case "reusable after exception" `Quick
            test_scheduler_reusable_after_exception;
          Alcotest.test_case "bfs/sssp at one worker" `Quick
            test_traversals_single_worker;
        ] );
      ( "on_pool",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (Printf.sprintf "exactly once P=%d" w) `Quick
                (test_pool_exactly_once w);
              Alcotest.test_case (Printf.sprintf "termination P=%d" w) `Quick
                (test_pool_termination w);
              Alcotest.test_case (Printf.sprintf "exception then rerun P=%d" w)
                `Quick (test_pool_exception_then_rerun w);
            ])
          [ 2; 4 ]
        @ [
            Alcotest.test_case "one-worker pool keeps priority order" `Quick
              test_pool_single_worker_order;
          ] );
    ]
