(* Tests for the work-stealing deque and the fork-join pool. *)

open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---------- Ws_deque ---------- *)

let test_deque_lifo_owner () =
  let d = Ws_deque.create () in
  Alcotest.(check bool) "empty" true (Ws_deque.is_empty d);
  Ws_deque.push d 1;
  Ws_deque.push d 2;
  Ws_deque.push d 3;
  Alcotest.(check int) "size" 3 (Ws_deque.size d);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Ws_deque.pop d);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Ws_deque.pop d);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ws_deque.pop d);
  Alcotest.(check (option int)) "pop empty" None (Ws_deque.pop d)

let test_deque_fifo_thief () =
  let d = Ws_deque.create () in
  for i = 1 to 5 do Ws_deque.push d i done;
  Alcotest.(check (option int)) "steal 1" (Some 1) (Ws_deque.steal d);
  Alcotest.(check (option int)) "steal 2" (Some 2) (Ws_deque.steal d);
  Alcotest.(check (option int)) "pop 5" (Some 5) (Ws_deque.pop d)

let test_deque_growth () =
  let d = Ws_deque.create ~capacity:2 () in
  let n = 1000 in
  for i = 0 to n - 1 do Ws_deque.push d i done;
  Alcotest.(check int) "size" n (Ws_deque.size d);
  for i = n - 1 downto 0 do
    Alcotest.(check (option int)) "pop order" (Some i) (Ws_deque.pop d)
  done

let test_deque_interleaved () =
  let d = Ws_deque.create ~capacity:4 () in
  (* Push/pop/steal interleaving that forces wraparound. *)
  for round = 0 to 99 do
    Ws_deque.push d (2 * round);
    Ws_deque.push d ((2 * round) + 1);
    (match Ws_deque.steal d with
     | Some _ -> ()
     | None -> Alcotest.fail "steal should succeed");
    match Ws_deque.pop d with
    | Some _ -> ()
    | None -> Alcotest.fail "pop should succeed"
  done;
  Alcotest.(check bool) "drained" true (Ws_deque.is_empty d)

(* Concurrent correctness: every pushed element is consumed exactly once,
   whether by the owner's pops or by thieves' steals. *)
let test_deque_concurrent_no_dup_no_loss () =
  let d = Ws_deque.create () in
  let n = 50_000 in
  let consumed = Rpb_prim.Atomic_array.make n 0 in
  let thieves_done = Atomic.make 0 in
  let num_thieves = 3 in
  let thief () =
    Domain.spawn (fun () ->
        let rec go () =
          match Ws_deque.steal d with
          | Some x ->
            ignore (Rpb_prim.Atomic_array.fetch_and_add consumed x 1);
            go ()
          | None ->
            if Atomic.get thieves_done = 0 then begin
              Domain.cpu_relax ();
              go ()
            end
        in
        go ())
  in
  let ds = List.init num_thieves (fun _ -> thief ()) in
  (* Owner: pushes everything, interleaving pops. *)
  for i = 0 to n - 1 do
    Ws_deque.push d i;
    if i land 3 = 0 then
      match Ws_deque.pop d with
      | Some x -> ignore (Rpb_prim.Atomic_array.fetch_and_add consumed x 1)
      | None -> ()
  done;
  (* Owner drains the rest. *)
  let rec drain () =
    match Ws_deque.pop d with
    | Some x ->
      ignore (Rpb_prim.Atomic_array.fetch_and_add consumed x 1);
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set thieves_done 1;
  List.iter Domain.join ds;
  let bad = ref 0 in
  for i = 0 to n - 1 do
    if Rpb_prim.Atomic_array.get consumed i <> 1 then incr bad
  done;
  Alcotest.(check int) "each element consumed exactly once" 0 !bad

(* ---------- Pool ---------- *)

let test_pool_run_returns () =
  with_pool 2 (fun pool ->
      Alcotest.(check int) "result" 42 (Pool.run pool (fun () -> 42)))

let test_pool_join () =
  with_pool 3 (fun pool ->
      Pool.run pool (fun () ->
          let a, b = Pool.join pool (fun () -> "left") (fun () -> "right") in
          Alcotest.(check string) "left" "left" a;
          Alcotest.(check string) "right" "right" b))

let test_pool_exception_propagates () =
  with_pool 2 (fun pool ->
      Alcotest.check_raises "exn from task" (Failure "boom") (fun () ->
          Pool.run pool (fun () ->
              snd (Pool.join pool (fun () -> ()) (fun () -> failwith "boom")))))

let test_pool_parallel_for_covers_range () =
  with_pool 4 (fun pool ->
      let n = 10_000 in
      let hits = Rpb_prim.Atomic_array.make n 0 in
      Pool.run pool (fun () ->
          Pool.parallel_for ~start:0 ~finish:n
            ~body:(fun i -> ignore (Rpb_prim.Atomic_array.fetch_and_add hits i 1))
            pool);
      let bad = ref 0 in
      for i = 0 to n - 1 do
        if Rpb_prim.Atomic_array.get hits i <> 1 then incr bad
      done;
      Alcotest.(check int) "each index exactly once" 0 !bad)

let test_pool_parallel_for_empty_range () =
  with_pool 2 (fun pool ->
      Pool.run pool (fun () ->
          Pool.parallel_for ~start:5 ~finish:5
            ~body:(fun _ -> Alcotest.fail "body must not run")
            pool;
          Pool.parallel_for ~start:5 ~finish:3
            ~body:(fun _ -> Alcotest.fail "body must not run")
            pool))

let test_pool_parallel_for_reduce_sum () =
  with_pool 4 (fun pool ->
      let n = 100_000 in
      let total =
        Pool.run pool (fun () ->
            Pool.parallel_for_reduce ~start:0 ~finish:n ~body:Fun.id
              ~combine:( + ) ~init:0 pool)
      in
      Alcotest.(check int) "gauss sum" (n * (n - 1) / 2) total)

let test_pool_parallel_for_reduce_grain1 () =
  with_pool 2 (fun pool ->
      let total =
        Pool.run pool (fun () ->
            Pool.parallel_for_reduce ~grain:1 ~start:0 ~finish:64
              ~body:Fun.id ~combine:( + ) ~init:0 pool)
      in
      Alcotest.(check int) "sum with grain 1" (64 * 63 / 2) total)

let test_pool_parallel_chunks_partition () =
  with_pool 3 (fun pool ->
      let n = 1003 in
      let seen = Rpb_prim.Atomic_array.make n 0 in
      (* The body runs on worker domains, where Alcotest's checks are not
         safe to call: count empty chunks and assert on the main domain. *)
      let empty_chunks = Atomic.make 0 in
      Pool.run pool (fun () ->
          Pool.parallel_chunks ~grain:64 ~start:0 ~finish:n
            ~body:(fun lo hi ->
              if lo >= hi then Atomic.incr empty_chunks;
              for i = lo to hi - 1 do
                ignore (Rpb_prim.Atomic_array.fetch_and_add seen i 1)
              done)
            pool);
      Alcotest.(check int) "no empty chunk" 0 (Atomic.get empty_chunks);
      for i = 0 to n - 1 do
        if Rpb_prim.Atomic_array.get seen i <> 1 then
          Alcotest.failf "index %d covered %d times" i
            (Rpb_prim.Atomic_array.get seen i)
      done)

let test_pool_nested_parallel_for () =
  with_pool 4 (fun pool ->
      let n = 64 in
      let acc = Rpb_prim.Atomic_array.make 1 0 in
      Pool.run pool (fun () ->
          Pool.parallel_for ~start:0 ~finish:n
            ~body:(fun _ ->
              Pool.parallel_for ~start:0 ~finish:n
                ~body:(fun _ ->
                  ignore (Rpb_prim.Atomic_array.fetch_and_add acc 0 1))
                pool)
            pool);
      Alcotest.(check int) "nested count" (n * n) (Rpb_prim.Atomic_array.get acc 0))

let test_pool_recursive_fib () =
  (* Divide-and-conquer through rayon-style join (paper Listing 9 shape). *)
  with_pool 4 (fun pool ->
      let rec fib n =
        if n < 2 then n
        else if n < 10 then fib (n - 1) + fib (n - 2)
        else
          let a, b =
            Pool.join pool (fun () -> fib (n - 1)) (fun () -> fib (n - 2))
          in
          a + b
      in
      let x = Pool.run pool (fun () -> fib 20) in
      Alcotest.(check int) "fib 20" 6765 x)

let test_pool_single_worker_sequential () =
  with_pool 1 (fun pool ->
      let n = 1000 in
      let acc = ref 0 in
      Pool.run pool (fun () ->
          Pool.parallel_for ~start:0 ~finish:n ~body:(fun i -> acc := !acc + i) pool);
      Alcotest.(check int) "sequential fallback" (n * (n - 1) / 2) !acc)

let test_pool_outside_run_sequential () =
  with_pool 2 (fun pool ->
      (* join outside run degrades to sequential execution. *)
      let a, b = Pool.join pool (fun () -> 1) (fun () -> 2) in
      Alcotest.(check (pair int int)) "outside join" (1, 2) (a, b))

let test_pool_current_worker () =
  with_pool 2 (fun pool ->
      Alcotest.(check (option int)) "outside" None (Pool.current_worker pool);
      Pool.run pool (fun () ->
          Alcotest.(check (option int)) "inside" (Some 0) (Pool.current_worker pool)))

let test_pool_reuse_after_run () =
  with_pool 2 (fun pool ->
      for round = 1 to 5 do
        let x = Pool.run pool (fun () -> round * 2) in
        Alcotest.(check int) "round result" (round * 2) x
      done)

let test_pool_shutdown_rejects () =
  let pool = Pool.create ~num_workers:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "run after shutdown" Pool.Shutdown (fun () ->
      ignore (Pool.run pool (fun () -> 0)))

let test_pool_many_small_tasks () =
  with_pool 4 (fun pool ->
      let n = 2000 in
      (* One join per index: a balanced tree of n single-index tasks. *)
      let rec sum lo hi =
        if hi - lo = 1 then lo
        else
          let mid = (lo + hi) / 2 in
          let a, b = Pool.join pool (fun () -> sum lo mid) (fun () -> sum mid hi) in
          a + b
      in
      Pool.run pool (fun () ->
          Alcotest.(check int) "all tasks ran" (n * (n - 1) / 2) (sum 0 n)))

(* ---------- scheduler telemetry ---------- *)

(* The per-worker counters must aggregate consistently: every total exposed
   by [Stats] equals the sum of its per-worker column. *)
let test_stats_per_worker_sums () =
  with_pool 4 (fun pool ->
      let before = Pool.Stats.capture pool in
      Pool.run pool (fun () ->
          Pool.parallel_for ~grain:1 ~start:0 ~finish:5_000
            ~body:(fun _ -> ())
            pool);
      let after = Pool.Stats.capture pool in
      let s = Pool.Stats.diff ~before ~after in
      Alcotest.(check int) "worker count" 4 s.Pool.Stats.num_workers;
      Alcotest.(check int) "per-worker array" 4
        (Array.length s.Pool.Stats.per_worker);
      let sum f =
        Array.fold_left (fun acc w -> acc + f w) 0 s.Pool.Stats.per_worker
      in
      Alcotest.(check int) "tasks total = sum"
        (Pool.Stats.tasks_executed s)
        (sum (fun w -> w.Pool.Stats.tasks_executed));
      Alcotest.(check int) "steals total = sum" (Pool.Stats.steals_ok s)
        (sum (fun w -> w.Pool.Stats.steals_ok));
      Alcotest.(check int) "failed steals total = sum"
        (Pool.Stats.steals_failed s)
        (sum (fun w -> w.Pool.Stats.steals_failed));
      Alcotest.(check int) "idle total = sum"
        (Pool.Stats.idle_episodes s)
        (sum (fun w -> w.Pool.Stats.idle_episodes));
      Alcotest.(check bool) "fork-join actually scheduled tasks" true
        (Pool.Stats.tasks_executed s > 0);
      Alcotest.(check bool) "worker ids are 0..n-1" true
        (Array.for_all
           (fun i -> s.Pool.Stats.per_worker.(i).Pool.Stats.worker_id = i)
           (Array.init 4 Fun.id)))

let test_stats_single_worker_no_steals () =
  with_pool 1 (fun pool ->
      Pool.Stats.reset pool;
      Pool.run pool (fun () ->
          Pool.parallel_for ~grain:1 ~start:0 ~finish:10_000
            ~body:(fun _ -> ())
            pool);
      let s = Pool.Stats.capture pool in
      Alcotest.(check int) "no steals with one worker" 0 (Pool.Stats.steals_ok s);
      Alcotest.(check int) "no failed steals with one worker" 0
        (Pool.Stats.steals_failed s))

let test_stats_diff_and_reset () =
  with_pool 3 (fun pool ->
      Pool.run pool (fun () ->
          Pool.parallel_for ~grain:1 ~start:0 ~finish:1_000
            ~body:(fun _ -> ())
            pool);
      let a = Pool.Stats.capture pool in
      (* No work between two snapshots: the diff must be all zeros. *)
      let b = Pool.Stats.capture pool in
      let d = Pool.Stats.diff ~before:a ~after:b in
      Alcotest.(check int) "quiescent diff tasks" 0 (Pool.Stats.tasks_executed d);
      Alcotest.(check int) "quiescent diff steals" 0 (Pool.Stats.steals_ok d);
      Pool.Stats.reset pool;
      let z = Pool.Stats.capture pool in
      Alcotest.(check int) "reset zeroes tasks" 0 (Pool.Stats.tasks_executed z);
      Alcotest.(check int) "reset zeroes depth" 0 (Pool.Stats.max_deque_depth z))

(* Pins the intended [max_deque_depth] semantics across repeated
   bench-iteration loops (the `rpb stats`/measure pattern: snapshot, work,
   snapshot, diff).  Monotonic counters are window-relative after [diff];
   the depth high-water mark deliberately is NOT — [diff] keeps the [after]
   snapshot's lifetime value (a high-water mark of a window that did less
   work than a previous one would under-report the deque pressure the pool
   has proven it can reach), and only [reset] rearms it. *)
let test_stats_depth_high_water_semantics () =
  with_pool 3 (fun pool ->
      let deep () =
        Pool.run pool (fun () ->
            Pool.parallel_for ~grain:1 ~start:0 ~finish:2_000
              ~body:(fun _ -> ())
              pool)
      in
      deep ();
      let a = Pool.Stats.capture pool in
      let depth_after_work = Pool.Stats.max_deque_depth a in
      Alcotest.(check bool) "fork-join reached some depth" true
        (depth_after_work > 0);
      (* A quiescent window: monotonic counters diff to zero, but the
         high-water mark keeps reporting the lifetime value. *)
      let b = Pool.Stats.capture pool in
      let d = Pool.Stats.diff ~before:a ~after:b in
      Alcotest.(check int) "quiescent window ran nothing" 0
        (Pool.Stats.tasks_executed d);
      Alcotest.(check int) "high-water survives diff (lifetime, not window)"
        depth_after_work
        (Pool.Stats.max_deque_depth d);
      (* Another iteration can only raise it: the mark is monotonic until
         reset, never per-window. *)
      deep ();
      let c = Pool.Stats.capture pool in
      let d2 = Pool.Stats.diff ~before:b ~after:c in
      Alcotest.(check bool) "next window's mark is >= previous" true
        (Pool.Stats.max_deque_depth d2 >= depth_after_work);
      (* [reset] is the only rearm point. *)
      Pool.Stats.reset pool;
      Alcotest.(check int) "reset rearms the mark" 0
        (Pool.Stats.max_deque_depth (Pool.Stats.capture pool)))

let test_trace_span_records_events () =
  with_pool 2 (fun pool ->
      Pool.Recorder.start ();
      Alcotest.(check bool) "enabled" true (Pool.Recorder.enabled ());
      Pool.Recorder.with_root (fun () ->
          Pool.run pool (fun () ->
              Pool.Recorder.span pool "outer" (fun () ->
                  Pool.parallel_for ~grain:8 ~start:0 ~finish:256
                    ~body:(fun _ -> ())
                    pool)));
      let recording = Pool.Recorder.stop () in
      Alcotest.(check bool) "disabled after stop" false
        (Pool.Recorder.enabled ());
      let path = Filename.temp_file "rpb_trace" ".json" in
      let n = Rpb_obs.Profile.write_chrome path recording in
      Alcotest.(check bool) "recorded the span (and work segments)" true
        (n >= 1);
      let ic = open_in path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      Sys.remove path;
      Alcotest.(check bool) "names the span" true
        (let re = "\"outer\"" in
         let rec find i =
           i + String.length re <= String.length body
           && (String.sub body i (String.length re) = re || find (i + 1))
         in
         find 0))

(* ---------- failure semantics ---------- *)

exception Boom of int
exception Combine_boom

(* A successful run on the same pool after a failure: the reusability check
   every failure test ends with. *)
let assert_reusable pool =
  let x =
    Pool.run pool (fun () ->
        Pool.parallel_for_reduce ~grain:16 ~start:0 ~finish:10_000 ~body:Fun.id
          ~combine:( + ) ~init:0 pool)
  in
  Alcotest.(check int) "pool reusable after failure" (10_000 * 9_999 / 2) x

let test_fail_join_branch () =
  with_pool 4 (fun pool ->
      (* Exception in the forked branch (g, executed as a task). *)
      Alcotest.check_raises "forked branch" (Boom 2) (fun () ->
          ignore
            (Pool.run pool (fun () ->
                 Pool.join pool (fun () -> 1) (fun () -> raise (Boom 2)))));
      (* Exception in the inline branch (f). *)
      Alcotest.check_raises "inline branch" (Boom 1) (fun () ->
          ignore
            (Pool.run pool (fun () ->
                 Pool.join pool (fun () -> raise (Boom 1)) (fun () -> 2))));
      assert_reusable pool)

let test_fail_parallel_for_leaf () =
  with_pool 4 (fun pool ->
      let n = 1_000 in
      let executed = Atomic.make 0 in
      (match
         Pool.run pool (fun () ->
             Pool.parallel_for ~grain:1 ~start:0 ~finish:n
               ~body:(fun i ->
                 if i = 0 then raise (Boom 0);
                 Atomic.incr executed;
                 Unix.sleepf 1e-4)
               pool)
       with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 0 -> ()
      | exception e -> raise e);
      (* Cancellation abandons sibling leaves: the failing leaf runs early
         (worker 0 descends left-first), so nowhere near all of the other
         999 bodies — each 100 us long — may have executed. *)
      Alcotest.(check bool) "sibling work abandoned" true
        (Atomic.get executed < n - 1);
      (* Drain guarantee: nothing of the failed scope still runs after [run]
         has re-raised. *)
      let after = Atomic.get executed in
      Unix.sleepf 0.05;
      Alcotest.(check int) "no task runs after run returns" after
        (Atomic.get executed);
      assert_reusable pool)

let test_fail_reduce_combine () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "combine raises" Combine_boom (fun () ->
          ignore
            (Pool.run pool (fun () ->
                 Pool.parallel_for_reduce ~grain:10 ~start:0 ~finish:1_000
                   ~body:Fun.id
                   ~combine:(fun _ _ -> raise Combine_boom)
                   ~init:0 pool)));
      assert_reusable pool)

let test_fail_many_leaves_surfaces_one () =
  (* Every leaf raises; exactly one of them must surface (the first recorded
     one), not [Cancelled] or a secondary artifact. *)
  with_pool 4 (fun pool ->
      (match
         Pool.run pool (fun () ->
             Pool.parallel_for ~grain:1 ~start:0 ~finish:256
               ~body:(fun i -> raise (Boom i))
               pool)
       with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom _ -> ()
      | exception e ->
        Alcotest.failf "wrong exception surfaced: %s" (Printexc.to_string e));
      assert_reusable pool)

let test_fail_caught_in_run_body_continues () =
  (* Catching a structured failure at the run-body level leaves the run
     healthy: later parallel calls in the same run work. *)
  with_pool 4 (fun pool ->
      let x =
        Pool.run pool (fun () ->
            (try
               Pool.parallel_for ~grain:1 ~start:0 ~finish:64
                 ~body:(fun i -> if i = 13 then raise (Boom 13))
                 pool
             with Boom 13 -> ());
            Pool.parallel_for_reduce ~grain:4 ~start:0 ~finish:1_000
              ~body:Fun.id ~combine:( + ) ~init:0 pool)
      in
      Alcotest.(check int) "run continues after caught failure"
        (1_000 * 999 / 2) x)

let test_shutdown_fails_pending_promises () =
  let pool = Pool.create ~num_workers:2 () in
  (* Shut the pool down from inside a run while 64 join branches are still
     queued: every branch must be resolved — executed or failed with
     [Shutdown] — so the joins waiting on them cannot poll forever. *)
  let rec fork k =
    if k = 0 then Pool.shutdown pool
    else
      ignore
        (Pool.join pool
           (fun () -> fork (k - 1))
           (fun () -> Unix.sleepf 1e-4))
  in
  match Pool.run pool (fun () -> fork 64) with
  | () | (exception Pool.Shutdown) -> ()

let test_run_deadline_stalls () =
  with_pool 4 (fun pool ->
      let t0 = Unix.gettimeofday () in
      (match
         Pool.run ~deadline:0.2 pool (fun () ->
             (* ~2.5 s of sleepy leaves across 4 workers: cannot finish
                within the deadline, but every leaf is short, so the
                watchdog's cancel is observed promptly. *)
             Pool.parallel_for ~grain:1 ~start:0 ~finish:50
               ~body:(fun _ -> Unix.sleepf 0.05)
               pool)
       with
      | () -> Alcotest.fail "expected Stalled"
      | exception Pool.Stalled msg ->
        Alcotest.(check bool) "dump mentions the deadline" true
          (String.length msg > 0)
      | exception e -> raise e);
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "bounded well below the full runtime" true
        (elapsed < 2.0);
      assert_reusable pool)

let test_run_deadline_completes () =
  with_pool 2 (fun pool ->
      let x =
        Pool.run ~deadline:30. pool (fun () ->
            Pool.parallel_for_reduce ~grain:8 ~start:0 ~finish:1_000
              ~body:Fun.id ~combine:( + ) ~init:0 pool)
      in
      Alcotest.(check int) "deadline run completes" (1_000 * 999 / 2) x)

(* ---------- shared timer wheel ---------- *)

let test_deadline_runs_share_timer_domain () =
  with_pool 2 (fun pool ->
      (* The first deadline-bearing run may lazily spawn the one shared
         timer domain; after that, watchdogs must be timer entries, not
         domains. *)
      Pool.run ~deadline:30. pool (fun () -> ());
      let before = Pool.Timer.domains_spawned () in
      for _ = 1 to 1_000 do
        Pool.run ~deadline:30. pool (fun () -> ())
      done;
      Alcotest.(check int) "domains spawned by 1000 deadline runs" 0
        (Pool.Timer.domains_spawned () - before))

let test_timer_schedule_fires () =
  let fired = Atomic.make false in
  let _h =
    Pool.Timer.schedule ~delay_s:0.02 (fun () -> Atomic.set fired true)
  in
  let give_up = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get fired)) && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "timer fired" true (Atomic.get fired)

let test_timer_cancel_prevents_fire () =
  let fired = Atomic.make false in
  let h =
    Pool.Timer.schedule ~delay_s:0.15 (fun () -> Atomic.set fired true)
  in
  Pool.Timer.cancel h;
  Unix.sleepf 0.25;
  Alcotest.(check bool) "cancelled timer never fired" false (Atomic.get fired)

let test_timer_ordering () =
  let order = Atomic.make [] in
  let push x = Atomic.set order (x :: Atomic.get order) in
  let _b = Pool.Timer.schedule ~delay_s:0.08 (fun () -> push "b") in
  let _a = Pool.Timer.schedule ~delay_s:0.02 (fun () -> push "a") in
  let give_up = Unix.gettimeofday () +. 5.0 in
  while List.length (Atomic.get order) < 2 && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.005
  done;
  Alcotest.(check (list string)) "fired in deadline order" [ "b"; "a" ]
    (Atomic.get order)

let test_cancel_run_from_other_thread () =
  with_pool 2 (fun pool ->
      let th =
        Thread.create
          (fun () ->
            Unix.sleepf 0.05;
            Pool.cancel_run pool Pool.Cancelled)
          ()
      in
      (match
         Fun.protect
           ~finally:(fun () -> Thread.join th)
           (fun () ->
             Pool.run pool (fun () ->
                 Pool.parallel_for ~grain:1 ~start:0 ~finish:10_000
                   ~body:(fun _ -> Unix.sleepf 0.001)
                   pool))
       with
      | () -> Alcotest.fail "expected Cancelled"
      | exception Pool.Cancelled -> ()
      | exception e -> raise e);
      assert_reusable pool)

(* ---------- fault injection ---------- *)

let test_fault_off_by_default () =
  Alcotest.(check bool) "disarmed" false (Pool.Fault.armed ())

let test_fault_task_exn_injected () =
  with_pool 4 (fun pool ->
      Pool.Fault.enable { Pool.Fault.off with seed = 7; task_exn = 1.0 };
      Fun.protect ~finally:Pool.Fault.disable @@ fun () ->
      (match
         Pool.run pool (fun () ->
             Pool.parallel_for ~grain:1 ~start:0 ~finish:100
               ~body:(fun _ -> ())
               pool)
       with
      | () ->
        (* Legal only if no task was ever forked (all inline) — but with
           p = 1.0 every forked task raises, so demand injections below. *)
        ()
      | exception Pool.Fault.Injected _ -> ()
      | exception e -> raise e);
      let c = Pool.Fault.counts () in
      Alcotest.(check bool) "task injections fired" true (c.Pool.Fault.task_exns > 0);
      Pool.Fault.disable ();
      assert_reusable pool)

let test_fault_delays_keep_results () =
  with_pool 4 (fun pool ->
      Pool.Fault.enable
        { Pool.Fault.off with
          seed = 11;
          steal_delay = 0.5;
          worker_stall = 0.2;
          delay_us = 100 };
      Fun.protect ~finally:Pool.Fault.disable @@ fun () ->
      let x =
        Pool.run pool (fun () ->
            Pool.parallel_for_reduce ~grain:4 ~start:0 ~finish:5_000
              ~body:Fun.id ~combine:( + ) ~init:0 pool)
      in
      Alcotest.(check int) "delays never change results" (5_000 * 4_999 / 2) x;
      let c = Pool.Fault.counts () in
      Alcotest.(check bool) "delay/stall injections fired" true
        (c.Pool.Fault.steal_delays + c.Pool.Fault.worker_stalls > 0))

let test_fault_spawn_degrades () =
  Pool.Fault.enable { Pool.Fault.off with seed = 13; spawn_fail = 1.0 };
  let pool =
    Fun.protect ~finally:Pool.Fault.disable (fun () ->
        Pool.create ~num_workers:4 ())
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let s = Pool.Stats.capture pool in
  Alcotest.(check int) "requested recorded" 4 s.Pool.Stats.requested_workers;
  Alcotest.(check bool) "degraded below request" true
    (s.Pool.Stats.num_workers < 4);
  Alcotest.(check bool) "degradation shown in summary" true
    (let sum = Pool.Stats.summary s in
     let re = "requested" in
     let rec find i =
       i + String.length re <= String.length sum
       && (String.sub sum i (String.length re) = re || find (i + 1))
     in
     find 0);
  (* The degraded pool still computes correctly. *)
  let x =
    Pool.run pool (fun () ->
        Pool.parallel_for_reduce ~grain:16 ~start:0 ~finish:10_000 ~body:Fun.id
          ~combine:( + ) ~init:0 pool)
  in
  Alcotest.(check int) "degraded pool correct" (10_000 * 9_999 / 2) x

(* ---------- scheduling defaults ---------- *)

(* The scheduler's fixed constants, as far as they are observable: eager
   splitting down to a default grain of [n / (8 * workers)] — a
   power-of-two range yields [n / grain] leaves, so [n / grain - 1] joins
   and as many spawned tasks — and help-first [join], which runs [f] inline
   before [g] on a single-worker pool. *)
let test_default_scheduler_constants () =
  with_pool 4 (fun pool ->
      let before = Pool.Stats.tasks_executed (Pool.Stats.capture pool) in
      Pool.run pool (fun () ->
          Pool.parallel_for ~start:0 ~finish:4096 ~body:(fun _ -> ()) pool);
      let after = Pool.Stats.tasks_executed (Pool.Stats.capture pool) in
      Alcotest.(check int) "default grain = n / (8 * workers)"
        ((4096 / (4096 / (8 * 4))) - 1)
        (after - before));
  with_pool 1 (fun pool ->
      let order = ref [] in
      let note x () = order := x :: !order in
      ignore (Pool.run pool (fun () -> Pool.join pool (note "f") (note "g")));
      Alcotest.(check (list string)) "help-first: f runs before g"
        [ "f"; "g" ] (List.rev !order))

(* The public API's results: a steal-heavy grain-1 reduce, join's
   (f result, g result) order — which is part of the API whatever order the
   branches actually run in — and deeply nested joins. *)
let test_policy_pools_agree () =
  with_pool 4 (fun pool ->
      let sum =
        Pool.run pool (fun () ->
            Pool.parallel_for_reduce ~grain:1 ~start:0 ~finish:20_000
              ~body:Fun.id ~combine:( + ) ~init:0 pool)
      in
      Alcotest.(check int) "steal-heavy reduce" 199_990_000 sum;
      let a, b =
        Pool.run pool (fun () -> Pool.join pool (fun () -> "f") (fun () -> "g"))
      in
      Alcotest.(check (pair string string)) "join result order" ("f", "g")
        (a, b);
      let rec fib k =
        if k < 2 then k
        else
          let x, y =
            Pool.join pool (fun () -> fib (k - 1)) (fun () -> fib (k - 2))
          in
          x + y
      in
      Alcotest.(check int) "nested joins" 610 (Pool.run pool (fun () -> fib 15)))

let prop_parallel_reduce_matches_sequential =
  QCheck.Test.make ~name:"parallel_for_reduce = sequential fold" ~count:20
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      with_pool 3 (fun pool ->
          let expected = Array.fold_left ( + ) 0 a in
          let got =
            Pool.run pool (fun () ->
                Pool.parallel_for_reduce ~grain:2 ~start:0
                  ~finish:(Array.length a)
                  ~body:(fun i -> a.(i))
                  ~combine:( + ) ~init:0 pool)
          in
          expected = got))

let () =
  Alcotest.run "rpb_pool"
    [
      ( "ws_deque",
        [
          Alcotest.test_case "owner LIFO" `Quick test_deque_lifo_owner;
          Alcotest.test_case "thief FIFO" `Quick test_deque_fifo_thief;
          Alcotest.test_case "growth" `Quick test_deque_growth;
          Alcotest.test_case "interleaved wraparound" `Quick test_deque_interleaved;
          Alcotest.test_case "concurrent exactly-once" `Quick
            test_deque_concurrent_no_dup_no_loss;
        ] );
      ( "policies",
        [
          Alcotest.test_case "default = pre-policy constants" `Quick
            test_default_scheduler_constants;
          Alcotest.test_case "all policies compute the same" `Quick
            test_policy_pools_agree;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run returns" `Quick test_pool_run_returns;
          Alcotest.test_case "join" `Quick test_pool_join;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "parallel_for coverage" `Quick
            test_pool_parallel_for_covers_range;
          Alcotest.test_case "parallel_for empty" `Quick
            test_pool_parallel_for_empty_range;
          Alcotest.test_case "reduce sum" `Quick test_pool_parallel_for_reduce_sum;
          Alcotest.test_case "reduce grain 1" `Quick
            test_pool_parallel_for_reduce_grain1;
          Alcotest.test_case "chunks partition" `Quick
            test_pool_parallel_chunks_partition;
          Alcotest.test_case "nested parallel_for" `Quick
            test_pool_nested_parallel_for;
          Alcotest.test_case "recursive fib join" `Quick test_pool_recursive_fib;
          Alcotest.test_case "single worker" `Quick
            test_pool_single_worker_sequential;
          Alcotest.test_case "outside run" `Quick test_pool_outside_run_sequential;
          Alcotest.test_case "current_worker" `Quick test_pool_current_worker;
          Alcotest.test_case "reuse across runs" `Quick test_pool_reuse_after_run;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown_rejects;
          Alcotest.test_case "many small tasks" `Quick test_pool_many_small_tasks;
          QCheck_alcotest.to_alcotest prop_parallel_reduce_matches_sequential;
        ] );
      ( "failures",
        [
          Alcotest.test_case "join branch raises" `Quick test_fail_join_branch;
          Alcotest.test_case "parallel_for leaf raises" `Quick
            test_fail_parallel_for_leaf;
          Alcotest.test_case "reduce combine raises" `Quick
            test_fail_reduce_combine;
          Alcotest.test_case "all leaves raise, one surfaces" `Quick
            test_fail_many_leaves_surfaces_one;
          Alcotest.test_case "caught in run body" `Quick
            test_fail_caught_in_run_body_continues;
          Alcotest.test_case "shutdown fails pending" `Quick
            test_shutdown_fails_pending_promises;
          Alcotest.test_case "deadline stalls" `Quick test_run_deadline_stalls;
          Alcotest.test_case "deadline completes" `Quick
            test_run_deadline_completes;
        ] );
      ( "timer",
        [
          Alcotest.test_case "deadline runs share one domain" `Quick
            test_deadline_runs_share_timer_domain;
          Alcotest.test_case "schedule fires" `Quick test_timer_schedule_fires;
          Alcotest.test_case "cancel prevents fire" `Quick
            test_timer_cancel_prevents_fire;
          Alcotest.test_case "fires in deadline order" `Quick
            test_timer_ordering;
          Alcotest.test_case "cancel_run from another thread" `Quick
            test_cancel_run_from_other_thread;
        ] );
      ( "faults",
        [
          Alcotest.test_case "off by default" `Quick test_fault_off_by_default;
          Alcotest.test_case "task exceptions" `Quick test_fault_task_exn_injected;
          Alcotest.test_case "delays keep results" `Quick
            test_fault_delays_keep_results;
          Alcotest.test_case "spawn failures degrade" `Quick
            test_fault_spawn_degrades;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "per-worker sums" `Quick test_stats_per_worker_sums;
          Alcotest.test_case "single worker: zero steals" `Quick
            test_stats_single_worker_no_steals;
          Alcotest.test_case "diff and reset" `Quick test_stats_diff_and_reset;
          Alcotest.test_case "depth high-water semantics" `Quick
            test_stats_depth_high_water_semantics;
          Alcotest.test_case "trace span" `Quick test_trace_span_records_events;
        ] );
    ]
