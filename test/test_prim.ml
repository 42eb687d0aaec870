(* Unit and property tests for the rpb_prim substrate. *)

open Rpb_prim

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_range () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 3.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let clash = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr clash
  done;
  Alcotest.(check bool) "split streams differ" true (!clash < 4)

let test_hash64_nonnegative_and_spread () =
  let seen = Hashtbl.create 1024 in
  for i = 0 to 9999 do
    let h = Rng.hash64 i in
    Alcotest.(check bool) "non-negative" true (h >= 0);
    Hashtbl.replace seen h ()
  done;
  (* 10k inputs should produce essentially 10k distinct hashes. *)
  Alcotest.(check bool) "few collisions" true (Hashtbl.length seen > 9990)

let test_hash64_stateless () =
  Alcotest.(check int) "pure" (Rng.hash64 123456) (Rng.hash64 123456)

let test_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.exponential_int r ~mean:100
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~100 (got %.1f)" mean)
    true
    (mean > 80.0 && mean < 120.0)

let test_permutation () =
  let r = Rng.create 3 in
  let p = Rng.permutation r 100 in
  let seen = Array.make 100 false in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "in range" true (x >= 0 && x < 100);
      Alcotest.(check bool) "no dup" false seen.(x);
      seen.(x) <- true)
    p

let test_atomic_array_basic () =
  let a = Atomic_array.make 10 5 in
  Alcotest.(check int) "len" 10 (Atomic_array.length a);
  Alcotest.(check int) "init" 5 (Atomic_array.get a 3);
  Atomic_array.set a 3 9;
  Alcotest.(check int) "set" 9 (Atomic_array.get a 3);
  Alcotest.(check bool) "cas ok" true (Atomic_array.compare_and_set a 3 9 11);
  Alcotest.(check bool) "cas stale" false (Atomic_array.compare_and_set a 3 9 13);
  Alcotest.(check int) "after cas" 11 (Atomic_array.get a 3)

let test_atomic_array_fetch_ops () =
  let a = Atomic_array.init 4 (fun i -> i * 10) in
  Alcotest.(check int) "faa returns old" 20 (Atomic_array.fetch_and_add a 2 5);
  Alcotest.(check int) "faa applied" 25 (Atomic_array.get a 2);
  Alcotest.(check int) "fetch_min old" 25 (Atomic_array.fetch_min a 2 7);
  Alcotest.(check int) "fetch_min applied" 7 (Atomic_array.get a 2);
  Alcotest.(check int) "fetch_min noop" 7 (Atomic_array.fetch_min a 2 100);
  Alcotest.(check int) "unchanged" 7 (Atomic_array.get a 2);
  Alcotest.(check int) "fetch_max old" 7 (Atomic_array.fetch_max a 2 50);
  Alcotest.(check int) "fetch_max applied" 50 (Atomic_array.get a 2)

let test_atomic_array_parallel_counter () =
  (* Concurrent fetch_and_add from 4 domains must not lose increments. *)
  let a = Atomic_array.make 1 0 in
  let per_domain = 10_000 in
  let spawn () =
    Domain.spawn (fun () ->
        for _ = 1 to per_domain do
          ignore (Atomic_array.fetch_and_add a 0 1)
        done)
  in
  let ds = List.init 4 (fun _ -> spawn ()) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" (4 * per_domain) (Atomic_array.get a 0)

let test_atomic_array_parallel_fetch_min () =
  let a = Atomic_array.make 1 max_int in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let r = Rng.create (100 + d) in
            for _ = 1 to 5_000 do
              ignore (Atomic_array.fetch_min a 0 (Rng.int r 1_000_000))
            done))
  in
  List.iter Domain.join ds;
  (* The final value must be achievable: recompute the true min. *)
  let expected = ref max_int in
  List.iteri
    (fun d () ->
      let r = Rng.create (100 + d) in
      for _ = 1 to 5_000 do
        expected := min !expected (Rng.int r 1_000_000)
      done)
    [ (); (); (); () ];
  Alcotest.(check int) "true minimum" !expected (Atomic_array.get a 0)

(* Exact final values under contention: every cell ends at the min, the max
   and the count of all the domains' updates. *)
let test_atomic_array_contended_rmw () =
  let cells = 16 and per_domain = 2_000 and domains = 3 in
  let lo = Atomic_array.make cells max_int in
  let hi = Atomic_array.make cells min_int in
  let count = Atomic_array.make cells 0 in
  let value d k = Rng.hash64 ((d * 1_000_003) + k) mod 1_000_000 - 500_000 in
  let rec cas_incr i =
    let cur = Atomic_array.get count i in
    if not (Atomic_array.compare_and_set count i cur (cur + 1)) then cas_incr i
  in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for k = 0 to per_domain - 1 do
              let i = k mod cells and v = value d k in
              ignore (Atomic_array.fetch_min lo i v);
              ignore (Atomic_array.fetch_max hi i v);
              cas_incr i
            done))
  in
  List.iter Domain.join ds;
  for i = 0 to cells - 1 do
    let want_lo = ref max_int and want_hi = ref min_int in
    for d = 0 to domains - 1 do
      for k = 0 to per_domain - 1 do
        if k mod cells = i then begin
          want_lo := min !want_lo (value d k);
          want_hi := max !want_hi (value d k)
        end
      done
    done;
    Alcotest.(check int) "fetch_min final" !want_lo (Atomic_array.get lo i);
    Alcotest.(check int) "fetch_max final" !want_hi (Atomic_array.get hi i);
    Alcotest.(check int) "cas increments" (domains * per_domain / cells)
      (Atomic_array.get count i)
  done

(* fetch_and_add adds 2d to the tagged word; it must wrap exactly as
   OCaml's [+] does, for negative deltas and at the ends of the range. *)
let test_atomic_array_fetch_add_edges () =
  List.iter
    (fun (x, d) ->
      let a = Atomic_array.make 1 x in
      Alcotest.(check int) "returns old" x (Atomic_array.fetch_and_add a 0 d);
      Alcotest.(check int) (Printf.sprintf "%d + %d" x d) (x + d)
        (Atomic_array.get a 0))
    [
      (0, -5); (3, -3); (-7, -1); (100, -1_000);
      (max_int, 1); (max_int, -1); (max_int, max_int); (max_int, min_int);
      (min_int, -1); (min_int, 1); (min_int, min_int); (min_int, max_int);
      (0, max_int); (0, min_int); (-1, min_int); (1, max_int);
    ]

let test_atomic_array_bounds () =
  let n = 5 in
  let a = Atomic_array.make n 0 in
  let oob = Invalid_argument "index out of bounds" in
  List.iter
    (fun i ->
      let at name f =
        Alcotest.check_raises (Printf.sprintf "%s at %d" name i) oob (fun () ->
            ignore (f ()))
      in
      at "get" (fun () -> Atomic_array.get a i);
      at "set" (fun () -> Atomic_array.set a i 1);
      at "compare_and_set" (fun () -> Atomic_array.compare_and_set a i 0 1);
      at "fetch_and_add" (fun () -> Atomic_array.fetch_and_add a i 1);
      at "fetch_min" (fun () -> Atomic_array.fetch_min a i (-1));
      at "fetch_max" (fun () -> Atomic_array.fetch_max a i 1))
    [ -1; n ];
  Alcotest.(check (array int)) "untouched" (Array.make n 0)
    (Atomic_array.to_array a)

let test_atomic_array_round_trips () =
  let src = Array.init 100 (fun i -> (i * 7919) - 300) in
  let a = Atomic_array.of_array src in
  Alcotest.(check (array int)) "of_array/to_array" src (Atomic_array.to_array a);
  src.(0) <- 42;
  Alcotest.(check int) "of_array copies" (-300) (Atomic_array.get a 0);
  let snap = Atomic_array.to_array a in
  Atomic_array.set a 1 0;
  Alcotest.(check int) "to_array copies" (7919 - 300) snap.(1);
  let b = Atomic_array.make 100 0 in
  Atomic_array.blit_from_array src b;
  Alcotest.(check (array int)) "blit_from_array" src (Atomic_array.to_array b);
  List.iter
    (fun m ->
      Alcotest.check_raises
        (Printf.sprintf "blit_from_array length %d into 100" m)
        (Invalid_argument "Atomic_array.blit_from_array")
        (fun () -> Atomic_array.blit_from_array (Array.make m 1) b))
    [ 99; 101 ];
  Alcotest.(check (array int)) "blit mismatch leaves dst" src
    (Atomic_array.to_array b);
  Alcotest.(check (array int)) "init" (Array.init 9 (fun i -> i * i))
    (Atomic_array.to_array (Atomic_array.init 9 (fun i -> i * i)));
  Alcotest.(check (array int)) "empty" [||]
    (Atomic_array.to_array (Atomic_array.of_array [||]))

(* [lock]/[unlock] exclude: 2 and then 4 domains each run [sections]
   critical sections on one shared row, bumping two of its cells with
   relaxed reads and writes.  Inside a section the two must read equal, and
   the final counts must be exact. *)
let test_atomic_array_lock_exclusion () =
  let sections = 10_000 in
  List.iter
    (fun domains ->
      let a = Atomic_array.make Atomic_array.cells_per_line 0 in
      let section () =
        let torn = ref 0 in
        for _ = 1 to sections do
          Atomic_array.lock a 0;
          let x = Atomic_array.get a 1 and y = Atomic_array.get a 2 in
          if x <> y then incr torn;
          Atomic_array.set a 1 (x + 1);
          Atomic_array.set a 2 (y + 1);
          Atomic_array.unlock a 0
        done;
        !torn
      in
      let ds = List.init domains (fun _ -> Domain.spawn section) in
      let torn = List.fold_left (fun acc d -> acc + Domain.join d) 0 ds in
      let what = Printf.sprintf "%d domains" domains in
      Alcotest.(check int) (what ^ ": sections saw equal cells") 0 torn;
      Alcotest.(check int) (what ^ ": first count") (domains * sections)
        (Atomic_array.get a 1);
      Alcotest.(check int) (what ^ ": second count") (domains * sections)
        (Atomic_array.get a 2);
      Alcotest.(check int) (what ^ ": lock released") 0 (Atomic_array.get a 0);
      let snap = Atomic_array.to_array a in
      Alcotest.(check bool) (what ^ ": to_array is a fresh copy") false
        (snap == (a :> int array));
      snap.(1) <- -1;
      Alcotest.(check int) (what ^ ": copy is detached") (domains * sections)
        (Atomic_array.get a 1))
    [ 2; 4 ]

(* The cells are unboxed: [make n] is one block of n words plus its header,
   in the minor heap (small n) and in the major heap (large n) alike.  Minor
   words come from [Gc.minor_words]: the minor part of [Gc.counters] (and so
   of [Gc.allocated_bytes]) lags on OCaml 5.1. *)
let test_atomic_array_make_allocation () =
  List.iter
    (fun n ->
      let reps = 100 in
      let sink = ref (Atomic_array.make 0 0) in
      let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
      for _ = 1 to reps do
        sink := Sys.opaque_identity (Atomic_array.make n 1)
      done;
      let _, promoted1, major1 = Gc.counters () and minor1 = Gc.minor_words () in
      ignore (Sys.opaque_identity !sink);
      let words =
        (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
        /. float_of_int reps
      in
      if words > float_of_int (n + 2) then
        Alcotest.failf "make %d allocates %.1f words, more than %d" n words
          (n + 2))
    [ 1; 64; 200; 10_000 ]

let test_util_ceil_div () =
  Alcotest.(check int) "7/2" 4 (Util.ceil_div 7 2);
  Alcotest.(check int) "8/2" 4 (Util.ceil_div 8 2);
  Alcotest.(check int) "0/5" 0 (Util.ceil_div 0 5);
  Alcotest.(check int) "1/5" 1 (Util.ceil_div 1 5)

let test_util_pow2 () =
  Alcotest.(check int) "1" 1 (Util.ceil_pow2 1);
  Alcotest.(check int) "2" 2 (Util.ceil_pow2 2);
  Alcotest.(check int) "3" 4 (Util.ceil_pow2 3);
  Alcotest.(check int) "1000" 1024 (Util.ceil_pow2 1000);
  Alcotest.(check int) "log2 1" 0 (Util.ilog2 1);
  Alcotest.(check int) "log2 1024" 10 (Util.ilog2 1024);
  Alcotest.(check int) "log2 1023" 9 (Util.ilog2 1023)

let test_util_sorted () =
  Alcotest.(check bool) "sorted" true (Util.is_sorted [| 1; 2; 2; 3 |]);
  Alcotest.(check bool) "unsorted" false (Util.is_sorted [| 1; 3; 2 |]);
  Alcotest.(check bool) "empty" true (Util.is_sorted ([||] : int array));
  Alcotest.(check bool) "strict" true (Util.is_strictly_increasing [| 1; 2; 3 |]);
  Alcotest.(check bool) "not strict" false (Util.is_strictly_increasing [| 1; 2; 2 |])

let test_timing () =
  let x, dt = Timing.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0);
  let x, dt = Timing.best_of ~repeats:3 (fun () -> 7) in
  Alcotest.(check int) "best_of result" 7 x;
  Alcotest.(check bool) "best_of time" true (dt >= 0.0);
  let x, dt = Timing.mean_of ~repeats:3 (fun () -> 9) in
  Alcotest.(check int) "mean_of result" 9 x;
  Alcotest.(check bool) "mean_of time" true (dt >= 0.0)

(* Property tests. *)

let prop_permutation_is_bijection =
  QCheck.Test.make ~name:"permutation is a bijection" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (seed, n) ->
      let n = n + 1 in
      let p = Rng.permutation (Rng.create seed) n in
      let seen = Array.make n false in
      Array.iter (fun x -> seen.(x) <- true) p;
      Array.for_all (fun b -> b) seen)

let prop_ceil_div =
  QCheck.Test.make ~name:"ceil_div a b = ceil(a/b)" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let b = b + 1 in
      let q = Util.ceil_div a b in
      (q * b >= a) && ((q - 1) * b < a || a = 0))

let prop_ceil_pow2 =
  QCheck.Test.make ~name:"ceil_pow2 bounds" ~count:200 QCheck.small_nat
    (fun n ->
      let n = n + 1 in
      let p = Util.ceil_pow2 n in
      p >= n && p land (p - 1) = 0 && (p = 1 || p / 2 < n))

let () =
  Alcotest.run "rpb_prim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "hash64 spread" `Quick test_hash64_nonnegative_and_spread;
          Alcotest.test_case "hash64 stateless" `Quick test_hash64_stateless;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "permutation" `Quick test_permutation;
          QCheck_alcotest.to_alcotest prop_permutation_is_bijection;
        ] );
      ( "atomic_array",
        [
          Alcotest.test_case "basic ops" `Quick test_atomic_array_basic;
          Alcotest.test_case "fetch ops" `Quick test_atomic_array_fetch_ops;
          Alcotest.test_case "parallel counter" `Quick test_atomic_array_parallel_counter;
          Alcotest.test_case "parallel fetch_min" `Quick test_atomic_array_parallel_fetch_min;
          Alcotest.test_case "contended min/max/cas" `Quick
            test_atomic_array_contended_rmw;
          Alcotest.test_case "fetch_and_add edges" `Quick
            test_atomic_array_fetch_add_edges;
          Alcotest.test_case "bounds" `Quick test_atomic_array_bounds;
          Alcotest.test_case "round trips" `Quick test_atomic_array_round_trips;
          Alcotest.test_case "lock exclusion" `Quick
            test_atomic_array_lock_exclusion;
          Alcotest.test_case "make allocation" `Quick
            test_atomic_array_make_allocation;
        ] );
      ( "util",
        [
          Alcotest.test_case "ceil_div" `Quick test_util_ceil_div;
          Alcotest.test_case "pow2/ilog2" `Quick test_util_pow2;
          Alcotest.test_case "sortedness" `Quick test_util_sorted;
          QCheck_alcotest.to_alcotest prop_ceil_div;
          QCheck_alcotest.to_alcotest prop_ceil_pow2;
        ] );
      ("timing", [ Alcotest.test_case "timers" `Quick test_timing ]);
    ]
