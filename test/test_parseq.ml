(* Tests for rpb_parseq: scan, pack, merge, sorts, radix, histogram. *)

open Rpb_parseq
open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

let seq_exclusive_scan a =
  let n = Array.length a in
  let out = Array.make n 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    out.(i) <- !acc;
    acc := !acc + a.(i)
  done;
  (out, !acc)

(* The executors a kernel property runs under: the work-stealing pool at 1,
   2 and 4 workers, and the shuffled deterministic executor. *)
let executors =
  [
    ("P=1", fun () -> Pool.create ~num_workers:1 ());
    ("P=2", fun () -> Pool.create ~num_workers:2 ());
    ("P=4", fun () -> Pool.create ~num_workers:4 ());
    ("seq_det", fun () -> Pool.create_deterministic ~seed:5 ~shuffle:true ());
  ]

let on_executor make f =
  let pool = make () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      Pool.run pool (fun () -> f pool))

(* Lengths on both sides of the 1024-element block edge, and one with many
   blocks. *)
let block_edge_sizes = [ 0; 1; 1023; 1024; 1025; 50_000 ]

(* Words allocated by [f ()] on the calling domain: minor words from
   [Gc.minor_words] (the minor part of [Gc.counters] lags on OCaml 5.1) plus
   direct major words.  The minor heap is emptied first, so no older block
   is promoted inside the window. *)
let words_allocated f =
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let _, promoted1, major1 = Gc.counters () and minor1 = Gc.minor_words () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* ---------- Scan ---------- *)

let test_scan_exclusive_int () =
  in_pool (fun pool ->
      let a = Array.init 10_000 (fun i -> (i mod 7) - 3) in
      let expected, etotal = seq_exclusive_scan a in
      let got, total = Scan.exclusive_int pool a in
      Alcotest.(check bool) "prefix" true (got = expected);
      Alcotest.(check int) "total" etotal total)

let test_scan_inclusive_int () =
  in_pool (fun pool ->
      let a = [| 1; 2; 3; 4 |] in
      Alcotest.(check bool) "inclusive" true
        (Scan.inclusive_int pool a = [| 1; 3; 6; 10 |]))

let test_scan_empty_and_single () =
  in_pool (fun pool ->
      let out, total = Scan.exclusive_int pool [||] in
      Alcotest.(check bool) "empty" true (out = [||] && total = 0);
      let out, total = Scan.exclusive_int pool [| 5 |] in
      Alcotest.(check bool) "single" true (out = [| 0 |] && total = 5))

let test_scan_generic_monoid () =
  in_pool (fun pool ->
      (* max-scan with identity min_int *)
      let a = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
      let got = Scan.inclusive pool max min_int a in
      Alcotest.(check bool) "running max" true
        (got = [| 3; 3; 4; 4; 5; 9; 9; 9 |]))

let prop_scan_matches_sequential =
  QCheck.Test.make ~name:"parallel scan = sequential scan" ~count:40
    QCheck.(list (int_range (-100) 100))
    (fun xs ->
      let a = Array.of_list xs in
      let expected = seq_exclusive_scan a in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () -> Scan.exclusive_int pool a = expected)))

(* ---------- Pack ---------- *)

let test_pack_evens () =
  in_pool (fun pool ->
      let a = Array.init 1000 Fun.id in
      let got = Pack.pack pool (fun x -> x land 1 = 0) a in
      Alcotest.(check int) "count" 500 (Array.length got);
      Alcotest.(check bool) "contents" true
        (Rpb_prim.Util.array_for_all_i (fun i x -> x = 2 * i) got))

let test_pack_none_all () =
  in_pool (fun pool ->
      let a = [| 1; 2; 3 |] in
      Alcotest.(check bool) "none" true (Pack.pack pool (fun _ -> false) a = [||]);
      Alcotest.(check bool) "all" true (Pack.pack pool (fun _ -> true) a = a))

let test_pack_index_and_partition () =
  in_pool (fun pool ->
      let idx = Pack.pack_index pool (fun i -> i mod 3 = 0) 10 in
      Alcotest.(check bool) "indices" true (idx = [| 0; 3; 6; 9 |]);
      let yes, no = Pack.partition pool (fun x -> x > 2) [| 1; 4; 2; 5 |] in
      Alcotest.(check bool) "yes" true (yes = [| 4; 5 |]);
      Alcotest.(check bool) "no" true (no = [| 1; 2 |]))

let test_flatten () =
  in_pool (fun pool ->
      let parts = [| [| 1; 2 |]; [||]; [| 3 |]; [| 4; 5; 6 |] |] in
      Alcotest.(check bool) "flatten" true
        (Pack.flatten pool parts = [| 1; 2; 3; 4; 5; 6 |]);
      Alcotest.(check bool) "empty outer" true (Pack.flatten pool [||] = ([||] : int array));
      Alcotest.(check bool) "all empty" true
        (Pack.flatten pool [| ([||] : int array); [||] |] = [||]))

let prop_pack_matches_filter =
  QCheck.Test.make ~name:"pack = List.filter" ~count:40
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      let p x = x mod 3 = 1 in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              Array.to_list (Pack.pack pool p a) = List.filter p xs)))

let test_pack_block_edges make () =
  List.iter
    (fun n ->
      let rng = Rpb_prim.Rng.create (n + 1) in
      let a = Array.init n (fun _ -> Rpb_prim.Rng.int rng 1000) in
      let xs = Array.to_list a in
      List.iter
        (fun (what, p) ->
          let got, idx =
            on_executor make (fun pool ->
                (Pack.pack pool p a, Pack.pack_index pool (fun i -> p a.(i)) n))
          in
          if Array.to_list got <> List.filter p xs then
            Alcotest.failf "pack %s n=%d differs from List.filter" what n;
          if Array.to_list idx <> List.filter (fun i -> p a.(i)) (List.init n Fun.id)
          then Alcotest.failf "pack_index %s n=%d differs from List.filter" what n)
        [
          ("mod 3", fun x -> x mod 3 = 1);
          ("all", fun _ -> true);
          ("none", fun _ -> false);
        ])
    block_edge_sizes

(* Pack keeps one flag byte per element and one offset per block: beyond
   the output it allocates about n/8 words, not an int per element. *)
let test_pack_allocation () =
  with_pool 1 (fun pool ->
      Pool.run pool (fun () ->
          let n = 50_000 in
          let a = Array.init n Fun.id in
          let out, words = words_allocated (fun () -> Pack.pack pool (fun x -> x land 1 = 0) a) in
          let bound = Array.length out + (n / 8) + 1_000 in
          if words > float_of_int bound then
            Alcotest.failf "pack of %d allocates %.0f words, more than %d" n words bound))

(* ---------- Merge ---------- *)

let test_merge_basic () =
  in_pool (fun pool ->
      let a = [| 1; 3; 5; 7 |] and b = [| 2; 3; 6 |] in
      Alcotest.(check bool) "merge" true
        (Merge.merge pool ~cmp:compare a b = [| 1; 2; 3; 3; 5; 6; 7 |]))

let test_merge_empty_sides () =
  in_pool (fun pool ->
      let a = [| 1; 2 |] in
      Alcotest.(check bool) "right empty" true (Merge.merge pool ~cmp:compare a [||] = a);
      Alcotest.(check bool) "left empty" true (Merge.merge pool ~cmp:compare [||] a = a))

let test_merge_large_parallel_path () =
  in_pool (fun pool ->
      (* Big enough to exercise the divide-and-conquer path. *)
      let a = Array.init 20_000 (fun i -> 2 * i) in
      let b = Array.init 20_000 (fun i -> (2 * i) + 1) in
      let got = Merge.merge pool ~cmp:compare a b in
      Alcotest.(check int) "length" 40_000 (Array.length got);
      Alcotest.(check bool) "sorted" true (Rpb_prim.Util.is_sorted got))

let test_merge_stability () =
  in_pool (fun pool ->
      (* Pairs compared by key only; payload tells provenance. *)
      let cmp (k1, _) (k2, _) = compare k1 k2 in
      let a = [| (1, "a1"); (2, "a2") |] and b = [| (1, "b1"); (2, "b2") |] in
      let got = Merge.merge pool ~cmp a b in
      Alcotest.(check bool) "ties from a first" true
        (got = [| (1, "a1"); (1, "b1"); (2, "a2"); (2, "b2") |]))

let test_bounds () =
  let a = [| 1; 3; 3; 3; 7 |] in
  Alcotest.(check int) "lower 3" 1 (Merge.lower_bound compare a ~lo:0 ~hi:5 3);
  Alcotest.(check int) "upper 3" 4 (Merge.upper_bound compare a ~lo:0 ~hi:5 3);
  Alcotest.(check int) "lower 0" 0 (Merge.lower_bound compare a ~lo:0 ~hi:5 0);
  Alcotest.(check int) "upper 9" 5 (Merge.upper_bound compare a ~lo:0 ~hi:5 9)

(* ---------- Sort ---------- *)

let random_array seed n bound =
  let rng = Rpb_prim.Rng.create seed in
  Array.init n (fun _ -> Rpb_prim.Rng.int rng bound)

let test_merge_sort_random () =
  in_pool (fun pool ->
      let a = random_array 1 50_000 1_000_000 in
      let got = Sort.merge_sort pool ~cmp:compare a in
      let expected = Array.copy a in
      Array.sort compare expected;
      Alcotest.(check bool) "sorted" true (got = expected);
      Alcotest.(check bool) "input untouched" true (a = random_array 1 50_000 1_000_000))

let test_sample_sort_random () =
  in_pool (fun pool ->
      let a = random_array 2 50_000 1_000_000 in
      let got = Sort.sample_sort pool ~cmp:compare a in
      let expected = Array.copy a in
      Array.sort compare expected;
      Alcotest.(check bool) "sorted" true (got = expected))

let test_sample_sort_skewed_duplicates () =
  in_pool (fun pool ->
      (* Heavy duplicates stress pivot selection. *)
      let a = random_array 3 30_000 5 in
      let got = Sort.sample_sort pool ~cmp:compare a in
      Alcotest.(check bool) "sorted" true (Rpb_prim.Util.is_sorted got);
      Alcotest.(check int) "length" 30_000 (Array.length got))

let test_sort_stability () =
  in_pool (fun pool ->
      let n = 10_000 in
      let rng = Rpb_prim.Rng.create 4 in
      let a = Array.init n (fun i -> (Rpb_prim.Rng.int rng 50, i)) in
      let cmp (k1, _) (k2, _) = compare k1 k2 in
      List.iter
        (fun (name, sorter) ->
          let got = sorter pool a in
          let ok = ref true in
          for i = 1 to n - 1 do
            let k1, p1 = got.(i - 1) and k2, p2 = got.(i) in
            if k1 > k2 || (k1 = k2 && p1 > p2) then ok := false
          done;
          Alcotest.(check bool) (name ^ " stable") true !ok)
        [
          ("merge_sort", fun pool a -> Sort.merge_sort pool ~cmp a);
          ("sample_sort", fun pool a -> Sort.sample_sort pool ~cmp a);
        ])

let test_sort_edge_cases () =
  in_pool (fun pool ->
      Alcotest.(check bool) "empty" true (Sort.merge_sort pool ~cmp:compare [||] = ([||] : int array));
      Alcotest.(check bool) "single" true (Sort.merge_sort pool ~cmp:compare [| 1 |] = [| 1 |]);
      let sorted = Array.init 10_000 Fun.id in
      Alcotest.(check bool) "already sorted" true
        (Sort.sample_sort pool ~cmp:compare sorted = sorted);
      let rev = Array.init 10_000 (fun i -> 9_999 - i) in
      Alcotest.(check bool) "reverse sorted" true
        (Sort.merge_sort pool ~cmp:compare rev = sorted);
      Alcotest.(check bool) "is_sorted yes" true (Sort.is_sorted pool ~cmp:compare sorted);
      Alcotest.(check bool) "is_sorted no" false (Sort.is_sorted pool ~cmp:compare rev))

let prop_sorts_agree =
  QCheck.Test.make ~name:"merge_sort = sample_sort = Array.sort" ~count:15
    QCheck.(pair small_nat (list small_int))
    (fun (seed, xs) ->
      (* Mix generated list with deterministic noise for larger inputs. *)
      let extra = random_array seed 5000 1000 in
      let a = Array.append (Array.of_list xs) extra in
      let expected = Array.copy a in
      Array.sort compare expected;
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              Sort.merge_sort pool ~cmp:compare a = expected
              && Sort.sample_sort pool ~cmp:compare a = expected)))

(* ---------- Radix ---------- *)

let test_rank_by_key_is_stable_sort () =
  in_pool (fun pool ->
      let keys = [| 2; 0; 1; 0; 2; 1 |] in
      let dest = Radix.rank_by_key pool ~keys ~buckets:3 in
      (* Stable: first 0 -> 0, second 0 -> 1, first 1 -> 2 ... *)
      Alcotest.(check bool) "ranks" true (dest = [| 4; 0; 2; 1; 5; 3 |]))

let test_counting_sort () =
  in_pool (fun pool ->
      let a = random_array 5 20_000 256 in
      let got = Radix.counting_sort pool ~buckets:256 a in
      let expected = Array.copy a in
      Array.sort compare expected;
      Alcotest.(check bool) "sorted" true (got = expected))

let test_radix_sort () =
  in_pool (fun pool ->
      let a = random_array 6 20_000 1_000_000_000 in
      let got = Radix.radix_sort pool a in
      let expected = Array.copy a in
      Array.sort compare expected;
      Alcotest.(check bool) "sorted" true (got = expected))

let test_radix_sort_by_stable () =
  in_pool (fun pool ->
      let n = 5_000 in
      let rng = Rpb_prim.Rng.create 7 in
      let a = Array.init n (fun i -> (Rpb_prim.Rng.int rng 1000, i)) in
      let got = Radix.radix_sort_by pool ~key:fst a in
      let ok = ref true in
      for i = 1 to n - 1 do
        let k1, p1 = got.(i - 1) and k2, p2 = got.(i) in
        if k1 > k2 || (k1 = k2 && p1 > p2) then ok := false
      done;
      Alcotest.(check bool) "stable sorted" true !ok)

let test_radix_rejects_negative () =
  in_pool (fun pool ->
      Alcotest.check_raises "negative key"
        (Invalid_argument "Radix.radix_sort_by: negative key") (fun () ->
          ignore (Radix.radix_sort pool [| 1; -2; 3 |])))

(* A sequential stable counting sort: the rank of element i. *)
let seq_rank keys buckets =
  let starts = Array.make buckets 0 in
  Array.iter (fun k -> starts.(k) <- starts.(k) + 1) keys;
  let acc = ref 0 in
  for k = 0 to buckets - 1 do
    let c = starts.(k) in
    starts.(k) <- !acc;
    acc := !acc + c
  done;
  Array.map
    (fun k ->
      let r = starts.(k) in
      starts.(k) <- r + 1;
      r)
    keys

let test_rank_block_edges make () =
  List.iter
    (fun n ->
      List.iter
        (fun buckets ->
          let rng = Rpb_prim.Rng.create (n + buckets) in
          let keys = Array.init n (fun _ -> Rpb_prim.Rng.int rng buckets) in
          let got = on_executor make (fun pool -> Radix.rank_by_key pool ~keys ~buckets) in
          if got <> seq_rank keys buckets then
            Alcotest.failf "rank_by_key n=%d buckets=%d differs from counting sort" n
              buckets)
        [ 1; 256; n + 1 ])
    block_edge_sizes

let test_rank_rejects_out_of_range () =
  List.iter
    (fun (make_name, make) ->
      List.iter
        (fun bad ->
          let keys = Array.init 5_000 (fun i -> i mod 7) in
          keys.(4_321) <- bad;
          Alcotest.check_raises
            (Printf.sprintf "key %d at %s" bad make_name)
            (Invalid_argument "Radix.rank_by_key: key out of range")
            (fun () ->
              ignore (on_executor make (fun pool -> Radix.rank_by_key pool ~keys ~buckets:7))))
        [ -1; 7 ])
    executors

(* With n+1 buckets (the suffix array's rounds) one worker ranks in one
   block: the ranks plus one row of counters, nothing else of size n. *)
let test_rank_allocation () =
  with_pool 1 (fun pool ->
      Pool.run pool (fun () ->
          let n = 50_000 in
          let rng = Rpb_prim.Rng.create 12 in
          let keys = Array.init n (fun _ -> Rpb_prim.Rng.int rng (n + 1)) in
          let _, words =
            words_allocated (fun () -> Radix.rank_by_key pool ~keys ~buckets:(n + 1))
          in
          let nb = Pool.size pool in
          let bound = n + (nb * (n + 1)) + 1_000 in
          if words > float_of_int bound then
            Alcotest.failf "rank_by_key n=%d allocates %.0f words, more than %d" n words
              bound))

(* ---------- Histogram ---------- *)

let test_histogram_modes_agree () =
  in_pool (fun pool ->
      let keys = random_array 8 50_000 128 in
      let expected = Histogram.histogram_seq ~keys ~buckets:128 in
      Alcotest.(check bool) "private" true
        (Histogram.histogram pool ~keys ~buckets:128 = expected);
      Alcotest.(check bool) "atomic" true
        (Histogram.histogram_atomic pool ~keys ~buckets:128 = expected);
      Alcotest.(check bool) "mutex" true
        (Histogram.histogram_mutex pool ~keys ~buckets:128 = expected))

let test_histogram_total_mass () =
  in_pool (fun pool ->
      let keys = random_array 9 10_000 64 in
      let h = Histogram.histogram pool ~keys ~buckets:64 in
      Alcotest.(check int) "mass" 10_000 (Rpb_prim.Util.array_sum h))

let test_histogram_stats_modes_agree () =
  in_pool (fun pool ->
      let n = 30_000 in
      let keys = random_array 10 n 32 in
      let values = random_array 11 n 1000 in
      let seq = Histogram.histogram_stats ~mode:Histogram.Stats_seq pool ~keys ~values ~buckets:32 in
      let mu = Histogram.histogram_stats ~mode:Histogram.Stats_mutex pool ~keys ~values ~buckets:32 in
      let pr = Histogram.histogram_stats ~mode:Histogram.Stats_private pool ~keys ~values ~buckets:32 in
      for b = 0 to 31 do
        Alcotest.(check bool) "mutex = seq" true (Histogram.stats_equal seq.(b) mu.(b));
        Alcotest.(check bool) "private = seq" true (Histogram.stats_equal seq.(b) pr.(b))
      done)

let test_histogram_stats_values () =
  in_pool (fun pool ->
      let keys = [| 0; 1; 0; 1; 0 |] in
      let values = [| 5; 10; 3; 20; 7 |] in
      let s = Histogram.histogram_stats ~mode:Histogram.Stats_private pool ~keys ~values ~buckets:2 in
      Alcotest.(check int) "count 0" 3 s.(0).Histogram.count;
      Alcotest.(check int) "total 0" 15 s.(0).Histogram.total;
      Alcotest.(check int) "min 0" 3 s.(0).Histogram.vmin;
      Alcotest.(check int) "max 0" 7 s.(0).Histogram.vmax;
      Alcotest.(check int) "count 1" 2 s.(1).Histogram.count;
      Alcotest.(check int) "total 1" 30 s.(1).Histogram.total)

let prop_histogram_matches_seq =
  QCheck.Test.make ~name:"parallel histogram = sequential" ~count:30
    QCheck.(list (int_bound 31))
    (fun xs ->
      let keys = Array.of_list xs in
      let expected = Histogram.histogram_seq ~keys ~buckets:32 in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              Histogram.histogram pool ~keys ~buckets:32 = expected
              && Histogram.histogram_atomic pool ~keys ~buckets:32 = expected)))

let () =
  Alcotest.run "rpb_parseq"
    [
      ( "scan",
        [
          Alcotest.test_case "exclusive int" `Quick test_scan_exclusive_int;
          Alcotest.test_case "inclusive int" `Quick test_scan_inclusive_int;
          Alcotest.test_case "empty/single" `Quick test_scan_empty_and_single;
          Alcotest.test_case "generic monoid" `Quick test_scan_generic_monoid;
          QCheck_alcotest.to_alcotest prop_scan_matches_sequential;
        ] );
      ( "pack",
        [
          Alcotest.test_case "evens" `Quick test_pack_evens;
          Alcotest.test_case "none/all" `Quick test_pack_none_all;
          Alcotest.test_case "index/partition" `Quick test_pack_index_and_partition;
          Alcotest.test_case "flatten" `Quick test_flatten;
          QCheck_alcotest.to_alcotest prop_pack_matches_filter;
          Alcotest.test_case "allocation" `Quick test_pack_allocation;
        ]
        @ List.map
            (fun (name, make) ->
              Alcotest.test_case ("pack block edges " ^ name) `Quick
                (test_pack_block_edges make))
            executors );
      ( "merge",
        [
          Alcotest.test_case "basic" `Quick test_merge_basic;
          Alcotest.test_case "empty sides" `Quick test_merge_empty_sides;
          Alcotest.test_case "large parallel" `Quick test_merge_large_parallel_path;
          Alcotest.test_case "stability" `Quick test_merge_stability;
          Alcotest.test_case "bounds" `Quick test_bounds;
        ] );
      ( "sort",
        [
          Alcotest.test_case "merge_sort random" `Quick test_merge_sort_random;
          Alcotest.test_case "sample_sort random" `Quick test_sample_sort_random;
          Alcotest.test_case "sample_sort duplicates" `Quick
            test_sample_sort_skewed_duplicates;
          Alcotest.test_case "stability" `Quick test_sort_stability;
          Alcotest.test_case "edge cases" `Quick test_sort_edge_cases;
          QCheck_alcotest.to_alcotest prop_sorts_agree;
        ] );
      ( "radix",
        [
          Alcotest.test_case "rank stable" `Quick test_rank_by_key_is_stable_sort;
          Alcotest.test_case "counting sort" `Quick test_counting_sort;
          Alcotest.test_case "radix sort" `Quick test_radix_sort;
          Alcotest.test_case "radix_sort_by stable" `Quick test_radix_sort_by_stable;
          Alcotest.test_case "negative rejected" `Quick test_radix_rejects_negative;
          Alcotest.test_case "rank out of range" `Quick test_rank_rejects_out_of_range;
          Alcotest.test_case "rank allocation" `Quick test_rank_allocation;
        ]
        @ List.map
            (fun (name, make) ->
              Alcotest.test_case ("rank_by_key " ^ name) `Quick
                (test_rank_block_edges make))
            executors );
      ( "histogram",
        [
          Alcotest.test_case "modes agree" `Quick test_histogram_modes_agree;
          Alcotest.test_case "total mass" `Quick test_histogram_total_mass;
          Alcotest.test_case "stats modes agree" `Quick
            test_histogram_stats_modes_agree;
          Alcotest.test_case "stats values" `Quick test_histogram_stats_values;
          QCheck_alcotest.to_alcotest prop_histogram_matches_seq;
        ] );
    ]
