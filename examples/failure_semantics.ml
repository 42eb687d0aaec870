(* Exception-safe fork-join, made concrete: structured cancellation,
   deadlines, and scheduler fault injection.

   Run with:  dune exec examples/failure_semantics.exe *)

open Rpb_pool

exception Bad_leaf of int

let () =
  let pool = Pool.create ~num_workers:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->

  (* 1. Structured cancellation: one failing leaf cancels its siblings and
     re-raises from the construct.  The scope drains before the exception
     escapes, so nothing from the failed parallel_for is still running. *)
  print_endline "1. structured cancellation";
  let executed = Atomic.make 0 in
  (match
     Pool.run pool @@ fun () ->
     Pool.parallel_for ~grain:1 ~start:0 ~finish:1_000 pool ~body:(fun i ->
         if i = 0 then raise (Bad_leaf i);
         Atomic.incr executed;
         ignore (Sys.opaque_identity (Unix.sleepf 1e-5)))
   with
  | () -> print_endline "   BUG: the failure was swallowed"
  | exception Bad_leaf i ->
    Printf.printf
      "   leaf %d raised; %d of 999 sibling leaves ran before cancellation\n"
      i (Atomic.get executed));

  (* The pool is immediately reusable after a failed run. *)
  let sum =
    Pool.run pool @@ fun () ->
    Pool.parallel_for_reduce ~start:0 ~finish:1_000 ~body:Fun.id ~combine:( + )
      ~init:0 pool
  in
  Printf.printf "   pool reusable afterwards: sum 0..999 = %d\n\n" sum;

  (* 2. Deadlines: a run that overstays raises Pool.Stalled with a dump of
     the per-worker scheduler counters instead of hanging. *)
  print_endline "2. run deadline watchdog";
  (match
     Pool.run ~deadline:0.05 pool @@ fun () ->
     Pool.parallel_for ~grain:1 ~start:0 ~finish:64 pool ~body:(fun _ ->
         Unix.sleepf 0.05)
   with
  | () -> print_endline "   finished inside the deadline (fast machine)"
  | exception Pool.Stalled msg ->
    Printf.printf "   Pool.Stalled: %s...\n\n"
      (String.sub msg 0 (min 60 (String.length msg))));

  (* 3. Fault injection: arm a seeded fault plan and watch a reduction
     either survive the injected chaos or fail cleanly — never hang,
     never return a wrong answer silently. *)
  print_endline "3. scheduler fault injection";
  Pool.Fault.enable { Pool.Fault.off with seed = 42; task_exn = 0.02 };
  (match
     Pool.run pool @@ fun () ->
     Pool.parallel_for_reduce ~grain:16 ~start:0 ~finish:100_000 ~body:Fun.id
       ~combine:( + ) ~init:0 pool
   with
  | total -> Printf.printf "   survived injection, sum = %d (correct = %b)\n"
               total (total = 4_999_950_000)
  | exception Pool.Fault.Injected site ->
    Printf.printf "   failed cleanly: injected fault at %s\n" site);
  Pool.Fault.disable ();
  let c = Pool.Fault.counts () in
  Printf.printf "   injections fired: %d task-exn, %d delays, %d stalls\n"
    c.Pool.Fault.task_exns c.Pool.Fault.steal_delays c.Pool.Fault.worker_stalls;
  let sum =
    Pool.run pool @@ fun () ->
    Pool.parallel_for_reduce ~start:0 ~finish:1_000 ~body:Fun.id ~combine:( + )
      ~init:0 pool
  in
  Printf.printf "   pool healthy after the storm: sum 0..999 = %d\n" sum
