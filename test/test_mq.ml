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

(* Random pushes and removals, interleaved, against a sorted-list model of
   (priority, id) pairs.  Priorities come from a small range so that many
   are equal, and the heap starts at capacity 1 so that it grows several
   times.  [Some p] pushes a fresh id at priority [p]; [None] removes the
   minimum, which must carry the model's smallest priority and an id the
   model holds at that priority. *)
let prop_heap_remove_min_model =
  QCheck.Test.make ~name:"remove_min against a sorted-list model" ~count:200
    QCheck.(list (option (int_bound 20)))
    (fun ops ->
      let h = Binary_heap.create ~capacity:1 () in
      let model = ref [] and next_id = ref 0 in
      let consistent () =
        Binary_heap.size h = List.length !model
        && Binary_heap.is_empty h = (!model = [])
      in
      let step ok op =
        ok
        &&
        match op with
        | Some p ->
          Binary_heap.push h ~pri:p !next_id;
          model := List.merge compare [ (p, !next_id) ] !model;
          incr next_id;
          consistent ()
        | None -> (
          match !model with
          | [] -> consistent ()
          | (p, _) :: _ ->
            let pri = Binary_heap.min_pri h and v = Binary_heap.min_val h in
            Binary_heap.remove_min h;
            let held = List.mem (pri, v) !model in
            model := List.filter (fun x -> x <> (pri, v)) !model;
            pri = p && held && consistent ())
      in
      List.fold_left step true ops
      && List.map fst (Binary_heap.to_sorted_list h) = List.map fst !model)

let test_heap_empty_raises () =
  let h = Binary_heap.create () in
  List.iter
    (fun (name, f) ->
      match f h with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s on an empty heap should raise" name)
    [
      ("min_pri", fun h -> ignore (Binary_heap.min_pri h));
      ("min_val", fun h -> ignore (Binary_heap.min_val h));
      ("remove_min", Binary_heap.remove_min);
    ]

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

(* A one-worker run pops from its private heap without allocating: a chain
   of 10k tasks, each pushing the next, costs less than one minor word per
   task in all (a [Some (pri, v)] pop alone would cost five). *)
let test_scheduler_single_worker_allocation () =
  let s = Multiqueue.Scheduler.create (Multiqueue.create ~queues:2 ()) in
  let n = 10_000 in
  let handled = ref 0 in
  let handler s ~pri v =
    incr handled;
    if v > 0 then Multiqueue.Scheduler.push s ~pri:(pri + 1) (v - 1)
  in
  Multiqueue.Scheduler.push s ~pri:0 (n - 1);
  let before = Gc.minor_words () in
  Multiqueue.Scheduler.run s ~num_workers:1 ~handler;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "chain ran" n !handled;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d tasks" words n)
    true (words < float_of_int n)

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
let fanout_exactly_once pool s ~workers =
  let n = 20_000 in
  let seen = Rpb_prim.Atomic_array.make n 0 in
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
  Alcotest.(check int) "ids not handled exactly once" 0 !bad

let test_pool_exactly_once workers () =
  on_pool workers @@ fun pool ->
  let q = Multiqueue.create ~queues:(4 * workers) () in
  let s = Multiqueue.Scheduler.create q in
  fanout_exactly_once pool s ~workers;
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

exception Stop

(* An unbounded chain stops only if cancellation reaches the running
   workers: another domain calls [Pool.cancel_run] once task 100 ran, and
   the run must re-raise its exception long before the chain's 10M-th
   task. *)
let test_pool_cancel_running workers () =
  let pool = Pool.create ~num_workers:workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let q = Multiqueue.create ~queues:(4 * workers) () in
  let s = Multiqueue.Scheduler.create q in
  let executed = Atomic.make 0 and reached = Atomic.make false in
  let canceller =
    Domain.spawn (fun () ->
        while not (Atomic.get reached) do
          Domain.cpu_relax ()
        done;
        Pool.cancel_run pool Stop)
  in
  Multiqueue.Scheduler.push s ~pri:0 0;
  let limit = 10_000_000 in
  Alcotest.check_raises "cancelled run" Stop (fun () ->
      Pool.run pool (fun () ->
          Multiqueue.Scheduler.run ~pool s ~num_workers:workers
            ~handler:(fun s ~pri v ->
              if Atomic.fetch_and_add executed 1 = 100 then Atomic.set reached true;
              if v < limit then Multiqueue.Scheduler.push s ~pri:(pri + 1) (v + 1))));
  Domain.join canceller;
  Alcotest.(check bool) "stopped early" true (Atomic.get executed < limit);
  Alcotest.(check bool) "queue emptied" true (Multiqueue.is_empty q);
  let acc = Atomic.make 0 in
  for i = 1 to 100 do
    Multiqueue.Scheduler.push s ~pri:i i
  done;
  Pool.run pool (fun () ->
      Multiqueue.Scheduler.run ~pool s ~num_workers:workers
        ~handler:(fun _ ~pri:_ v -> ignore (Atomic.fetch_and_add acc v)));
  Alcotest.(check int) "next run" 5050 (Atomic.get acc)

(* [Pool.cancel_run] from another domain while sssp runs on the pool: the
   run re-raises the exception without sssp returning, and the next run on
   the same pool equals the sequential reference.  The canceller spins
   before the run starts, so it cancels within microseconds; sssp on this
   road grid (65k vertices) takes about 10 ms on two cores. *)
let cancel_scale = 16

let test_pool_cancel_sssp workers () =
  let pool = Pool.create ~num_workers:workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let g =
    Pool.run pool (fun () ->
        Rpb_graph.Generate.by_name pool ~name:"road" ~scale:cancel_scale
          ~weighted:true)
  in
  let expected = Rpb_graph.Reference.dijkstra g ~src:0 in
  let started = Atomic.make false and cancelled = Atomic.make false in
  let canceller =
    Domain.spawn (fun () ->
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        Pool.cancel_run pool Stop;
        Atomic.set cancelled true)
  in
  let returned = ref false in
  Alcotest.check_raises "cancelled run" Stop (fun () ->
      Pool.run pool (fun () ->
          Atomic.set started true;
          ignore (Rpb_graph.Traverse.sssp pool g ~src:0);
          (* Only reached if the cancel came too late: wait for it, so that
             the run still raises and the check below names the fault. *)
          returned := true;
          while not (Atomic.get cancelled) do
            Domain.cpu_relax ()
          done));
  Domain.join canceller;
  Alcotest.(check bool) "sssp stopped before it returned" false !returned;
  Alcotest.(check (array int)) "re-run equals Reference.dijkstra" expected
    (Pool.run pool (fun () -> Rpb_graph.Traverse.sssp pool g ~src:0))

(* A handler raises on the middle task of a batch: one lane holds exactly
   one batch, so the first worker to lock it takes all of it, smallest
   first.  The tasks after the raise and the children the batch buffered go
   with the run, no handler runs after it, and the next run handles every
   id of the fan-out tree exactly once. *)
let test_pool_batch_failure workers () =
  on_pool workers @@ fun pool ->
  let b = Multiqueue.Scheduler.batch in
  let q = Multiqueue.create ~queues:1 () in
  let s = Multiqueue.Scheduler.create q in
  for i = 0 to b - 1 do
    Multiqueue.Scheduler.push s ~pri:i i
  done;
  let handled = Atomic.make [] in
  let rec record v =
    let l = Atomic.get handled in
    if not (Atomic.compare_and_set handled l (v :: l)) then record v
  in
  Alcotest.check_raises "handler failure" (Failure "batch boom") (fun () ->
      Multiqueue.Scheduler.run ~pool s ~num_workers:workers
        ~handler:(fun s ~pri:_ v ->
          record v;
          if v = b / 2 then failwith "batch boom";
          Multiqueue.Scheduler.push s ~pri:0 (1000 + v)));
  let ran = List.rev (Atomic.get handled) in
  Alcotest.(check (list int)) "the batch up to the raise, then nothing"
    (List.init ((b / 2) + 1) Fun.id) ran;
  Unix.sleepf 0.01;
  Alcotest.(check int) "no handler ran after the raise" (List.length ran)
    (List.length (Atomic.get handled));
  Alcotest.(check bool) "queue emptied" true (Multiqueue.is_empty q);
  fanout_exactly_once pool s ~workers

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
          QCheck_alcotest.to_alcotest prop_heap_remove_min_model;
          Alcotest.test_case "empty heap raises" `Quick test_heap_empty_raises;
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
          Alcotest.test_case "single worker allocation-free" `Quick
            test_scheduler_single_worker_allocation;
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
              Alcotest.test_case (Printf.sprintf "batch failure P=%d" w) `Quick
                (test_pool_batch_failure w);
              Alcotest.test_case (Printf.sprintf "cancel running P=%d" w) `Quick
                (test_pool_cancel_running w);
              Alcotest.test_case (Printf.sprintf "cancel sssp P=%d" w) `Quick
                (test_pool_cancel_sssp w);
            ])
          [ 2; 4 ]
        @ [
            Alcotest.test_case "one-worker pool keeps priority order" `Quick
              test_pool_single_worker_order;
          ] );
    ]
