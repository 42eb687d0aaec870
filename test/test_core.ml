(* Tests for rpb_core: pattern taxonomy, parallel iterators, and the checked
   indirect iterators (SngInd / RngInd). *)

open Rpb_core
open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

(* ---------- Pattern ---------- *)

let test_pattern_safety_table () =
  (* Table 3's fearlessness column. *)
  let expect =
    [
      (Pattern.RO, Pattern.Fearless);
      (Pattern.Stride, Pattern.Fearless);
      (Pattern.Block, Pattern.Fearless);
      (Pattern.DandC, Pattern.Fearless);
      (Pattern.SngInd, Pattern.Comfortable);
      (Pattern.RngInd, Pattern.Comfortable);
      (Pattern.AW, Pattern.Scared);
    ]
  in
  List.iter
    (fun (a, f) ->
      Alcotest.(check string)
        (Pattern.access_name a)
        (Pattern.fear_name f)
        (Pattern.fear_name (Pattern.safety a)))
    expect

let test_pattern_names_roundtrip () =
  List.iter
    (fun a ->
      match Pattern.access_of_string (Pattern.access_name a) with
      | Some a' ->
        Alcotest.(check string) "roundtrip" (Pattern.access_name a)
          (Pattern.access_name a')
      | None -> Alcotest.fail "name did not parse")
    Pattern.all_accesses

let test_pattern_irregularity () =
  (* Fig. 1 poles: array reduction = 0, relaxed Dijkstra = 4. *)
  let reduction =
    Pattern.
      { data = Structured; op = Read_only; dispatch = Static; ordering = Unordered }
  in
  let dijkstra =
    Pattern.
      {
        data = Unstructured;
        op = Arbitrary_read_write;
        dispatch = Dynamic;
        ordering = Ordered;
      }
  in
  Alcotest.(check int) "reduction" 0 (Pattern.irregularity_index reduction);
  Alcotest.(check int) "dijkstra" 5 (Pattern.irregularity_index dijkstra);
  Alcotest.(check bool) "reduction regular" true (Pattern.is_regular reduction);
  Alcotest.(check bool) "dijkstra irregular" false (Pattern.is_regular dijkstra)

let test_pattern_classification () =
  let shape data op =
    Pattern.{ data; op; dispatch = Static; ordering = Unordered }
  in
  Alcotest.(check (list string))
    "read only" [ "RO" ]
    (List.map Pattern.access_name
       (Pattern.classify_access (shape Pattern.Structured Pattern.Read_only)));
  Alcotest.(check (list string))
    "local structured" [ "Stride"; "Block"; "D&C" ]
    (List.map Pattern.access_name
       (Pattern.classify_access (shape Pattern.Structured Pattern.Local_read_write)));
  Alcotest.(check (list string))
    "local unstructured" [ "SngInd"; "RngInd" ]
    (List.map Pattern.access_name
       (Pattern.classify_access
          (shape Pattern.Unstructured Pattern.Local_read_write)));
  Alcotest.(check (list string))
    "arbitrary" [ "AW" ]
    (List.map Pattern.access_name
       (Pattern.classify_access
          (shape Pattern.Unstructured Pattern.Arbitrary_read_write)))

(* ---------- Par_array ---------- *)

let test_par_map () =
  in_pool (fun pool ->
      let a = Array.init 1000 Fun.id in
      let b = Par_array.map pool (fun x -> x * x) a in
      Alcotest.(check bool) "squares" true
        (Rpb_prim.Util.array_for_all_i (fun i x -> x = i * i) b))

let test_par_map_inplace_stride () =
  (* The Stride example of Listing 4: vector[i] *= vector[i]. *)
  in_pool (fun pool ->
      let a = Array.init 1000 (fun i -> i + 1) in
      Par_array.map_inplace pool (fun x -> x * x) a;
      Alcotest.(check bool) "in place squares" true
        (Rpb_prim.Util.array_for_all_i (fun i x -> x = (i + 1) * (i + 1)) a))

let test_par_init_and_fill () =
  in_pool (fun pool ->
      let a = Par_array.init pool 257 (fun i -> 2 * i) in
      Alcotest.(check int) "len" 257 (Array.length a);
      Alcotest.(check bool) "contents" true
        (Rpb_prim.Util.array_for_all_i (fun i x -> x = 2 * i) a);
      let b = Array.make 100 0 in
      Par_array.fill_stride pool b (fun i -> i + 7);
      Alcotest.(check bool) "fill" true
        (Rpb_prim.Util.array_for_all_i (fun i x -> x = i + 7) b))

let test_par_reduce_matches_listing3 () =
  (* Listing 3(c): chunked parallel sum. *)
  in_pool (fun pool ->
      let v = Array.init 12345 (fun i -> i mod 97) in
      let expected = Array.fold_left ( + ) 0 v in
      Alcotest.(check int) "sum" expected (Par_array.sum pool v);
      Alcotest.(check (float 1e-9)) "fsum" (float_of_int expected)
        (Par_array.sum_float pool (Array.map float_of_int v)))

let test_par_minmax_count () =
  in_pool (fun pool ->
      let a = [| 5; 3; 9; 1; 7 |] in
      Alcotest.(check (option int)) "min" (Some 1) (Par_array.min_elt pool ~cmp:compare a);
      Alcotest.(check (option int)) "max" (Some 9) (Par_array.max_elt pool ~cmp:compare a);
      Alcotest.(check (option int)) "empty min" None
        (Par_array.min_elt pool ~cmp:compare ([||] : int array));
      Alcotest.(check int) "count odd" 5 (Par_array.count pool (fun x -> x land 1 = 1) a);
      Alcotest.(check int) "count big" 3 (Par_array.count pool (fun x -> x >= 5) a);
      Alcotest.(check bool) "for_all" true (Par_array.for_all pool (fun x -> x > 0) a);
      Alcotest.(check bool) "exists" true (Par_array.exists pool (fun x -> x = 9) a);
      Alcotest.(check bool) "not exists" false (Par_array.exists pool (fun x -> x = 100) a))

let test_par_chunks_block () =
  (* Block pattern of Listing 5: per-chunk writes. *)
  in_pool (fun pool ->
      let n = 1000 in
      let a = Array.make n (-1) in
      Par_array.chunks pool ~chunk:128 a (fun lo hi ->
          for i = lo to hi - 1 do
            a.(i) <- lo
          done);
      Alcotest.(check bool) "chunk id written" true
        (Rpb_prim.Util.array_for_all_i (fun i x -> x = i / 128 * 128) a))

let test_par_copy_blit_reverse () =
  in_pool (fun pool ->
      let a = Array.init 500 Fun.id in
      let b = Par_array.copy pool a in
      Alcotest.(check bool) "copy equal" true (a = b);
      Alcotest.(check bool) "copy distinct" false (a == b);
      let c = Array.make 500 0 in
      Par_array.blit pool ~src:a ~dst:c;
      Alcotest.(check bool) "blit" true (a = c);
      Par_array.reverse_inplace pool c;
      Alcotest.(check bool) "reversed" true
        (Rpb_prim.Util.array_for_all_i (fun i x -> x = 499 - i) c))

(* ---------- Scatter (SngInd) ---------- *)

let test_scatter_permutation_all_modes () =
  in_pool (fun pool ->
      let n = 2000 in
      let rng = Rpb_prim.Rng.create 17 in
      let offsets = Rpb_prim.Rng.permutation rng n in
      let src = Array.init n (fun i -> i * 3) in
      let expected = Array.make n 0 in
      Array.iteri (fun i o -> expected.(o) <- src.(i)) offsets;
      List.iter
        (fun mode ->
          match mode with
          | Scatter.Atomic ->
            let out = Rpb_prim.Atomic_array.make n 0 in
            Scatter.atomic pool ~out ~offsets ~src;
            Alcotest.(check bool) "atomic" true
              (Rpb_prim.Atomic_array.to_array out = expected)
          | _ ->
            let out = Array.make n 0 in
            Scatter.scatter mode pool ~out ~offsets ~src;
            Alcotest.(check bool) (Scatter.mode_name mode) true (out = expected))
        Scatter.all_modes)

let test_scatter_checked_detects_duplicate () =
  in_pool (fun pool ->
      let offsets = [| 0; 1; 2; 1; 4 |] in
      let src = Array.make 5 9 in
      let out = Array.make 5 0 in
      let raised =
        try
          Scatter.checked pool ~out ~offsets ~src;
          false
        with Scatter.Duplicate_offset 1 -> true
      in
      Alcotest.(check bool) "duplicate caught (mark)" true raised;
      let raised =
        try
          Scatter.checked ~strategy:Scatter.Sort_based pool ~out ~offsets ~src;
          false
        with Scatter.Duplicate_offset 1 -> true
      in
      Alcotest.(check bool) "duplicate caught (sort)" true raised)

let test_scatter_checked_detects_out_of_range () =
  in_pool (fun pool ->
      let offsets = [| 0; 5; 2 |] in
      let src = Array.make 3 1 in
      let out = Array.make 3 0 in
      Alcotest.check_raises "out of range" (Scatter.Offset_out_of_range 5)
        (fun () -> Scatter.checked pool ~out ~offsets ~src))

let test_scatter_unchecked_accepts_duplicates_silently () =
  (* The scary mode: a buggy offsets array silently corrupts the output —
     exactly the paper's Listing 6(d) failure mode. *)
  in_pool (fun pool ->
      let offsets = [| 0; 1; 1 |] in
      let src = [| 10; 20; 30 |] in
      let out = Array.make 3 0 in
      Scatter.unchecked pool ~out ~offsets ~src;
      Alcotest.(check int) "slot 0" 10 out.(0);
      Alcotest.(check bool) "slot 1 is one of the racers" true
        (out.(1) = 20 || out.(1) = 30);
      Alcotest.(check int) "slot 2 untouched" 0 out.(2))

let test_scatter_checked_mark_table_abort_safe () =
  (* Regression: a validation pass aborted mid-flight (duplicate found, or a
     fault-injected task exception) must leave the shared cached mark table
     valid — later validations on the same table get no false positives and
     no missed duplicates. *)
  in_pool (fun pool ->
      let n = 4_096 in
      let rng = Rpb_prim.Rng.create 31 in
      let valid () = Rpb_prim.Rng.permutation rng n in
      let src = Array.init n Fun.id in
      let out = Array.make n 0 in
      for round = 1 to 5 do
        (* Abort by duplicate: hide one at the far end. *)
        let offsets = valid () in
        offsets.(n - 1) <- offsets.(0);
        (match Scatter.checked pool ~out ~offsets ~src with
         | () -> Alcotest.failf "round %d: duplicate missed" round
         | exception Scatter.Duplicate_offset _ -> ());
        (* The next valid validation on the same cached table must pass. *)
        Scatter.checked pool ~out ~offsets:(valid ()) ~src
      done;
      (* Abort mid-pass by injected task exceptions, then validate clean. *)
      Pool.Fault.enable { Pool.Fault.off with seed = 5; task_exn = 0.05 };
      Fun.protect ~finally:Pool.Fault.disable (fun () ->
          for _ = 1 to 5 do
            match Scatter.checked pool ~out ~offsets:(valid ()) ~src with
            | () -> ()
            | exception Pool.Fault.Injected _ -> ()
          done);
      Pool.Fault.disable ();
      Scatter.checked pool ~out ~offsets:(valid ()) ~src;
      (* And a planted duplicate is still caught after all that churn. *)
      let offsets = valid () in
      offsets.(0) <- offsets.(n - 1);
      match Scatter.checked pool ~out ~offsets ~src with
      | () -> Alcotest.fail "duplicate missed after aborted passes"
      | exception Scatter.Duplicate_offset _ -> ())

let test_scatter_checked_raises_before_writing () =
  (* The contract: validation finishes before the first write to [out], so
     a raise leaves it untouched; a range error beats a duplicate. *)
  in_pool (fun pool ->
      let expect name exn offsets =
        List.iter
          (fun strategy ->
            let out = Array.make 8 (-1) in
            let src = Array.make (Array.length offsets) 5 in
            Alcotest.check_raises name exn (fun () ->
                Scatter.checked ~strategy pool ~out ~offsets ~src);
            Alcotest.(check bool) (name ^ ": out unchanged") true
              (Array.for_all (( = ) (-1)) out))
          [ Scatter.Mark_table; Scatter.Sort_based ]
      in
      expect "duplicate" (Scatter.Duplicate_offset 3) [| 0; 3; 1; 3; 2 |];
      expect "out of range" (Scatter.Offset_out_of_range 8) [| 0; 1; 8; 2 |];
      expect "negative" (Scatter.Offset_out_of_range (-1)) [| 0; -1; 2 |];
      expect "range beats duplicate" (Scatter.Offset_out_of_range 9)
        [| 4; 4; 9; 1 |])

let test_scatter_checked_stale_stamps () =
  (* A call aborted by a range error after its claim pass stamped slot 7
     must not lend that stamp to the next call: there the seven distinct
     values plus the stale 7 would count to m = 8 and hide the duplicate. *)
  in_pool (fun pool ->
      let n = 8 in
      Alcotest.check_raises "range error" (Scatter.Offset_out_of_range 99)
        (fun () -> Scatter.validate_offsets pool ~n [| 7; 99 |]);
      Alcotest.check_raises "duplicate after abort" (Scatter.Duplicate_offset 6)
        (fun () ->
          Scatter.validate_offsets pool ~n [| 0; 1; 2; 3; 4; 5; 6; 6 |]))

let test_scatter_length_mismatch () =
  in_pool (fun pool ->
      let out = Array.make 3 0 in
      Alcotest.check_raises "mismatch"
        (Invalid_argument "Scatter: offsets and src length mismatch") (fun () ->
          Scatter.unchecked pool ~out ~offsets:[| 0; 1 |] ~src:[| 1 |]))

let test_scatter_generic_atomic_rejected () =
  in_pool (fun pool ->
      let out = Array.make 2 0 in
      Alcotest.check_raises "atomic via generic"
        (Invalid_argument "Scatter.scatter: Atomic mode needs Scatter.atomic")
        (fun () ->
          Scatter.scatter Scatter.Atomic pool ~out ~offsets:[| 0; 1 |]
            ~src:[| 1; 2 |]))

let test_gather () =
  in_pool (fun pool ->
      let src = [| 10; 20; 30; 40 |] in
      let got = Scatter.gather pool ~src ~offsets:[| 3; 3; 0; 2 |] in
      Alcotest.(check bool) "gather" true (got = [| 40; 40; 10; 30 |]))

(* ---------- Chunks_ind (RngInd) ---------- *)

let test_chunks_ind_disjoint_fill () =
  in_pool (fun pool ->
      let out = Array.make 10 (-1) in
      let offsets = [| 0; 3; 3; 8; 10 |] in
      Chunks_ind.fill_chunks_ind pool ~out ~offsets ~f:(fun chunk _j -> chunk);
      Alcotest.(check bool) "chunks written" true
        (out = [| 0; 0; 0; 2; 2; 2; 2; 2; 3; 3 |]))

let test_chunks_ind_detects_non_monotonic () =
  in_pool (fun pool ->
      let out = Array.make 10 0 in
      let offsets = [| 0; 5; 3; 10 |] in
      Alcotest.check_raises "non monotonic" (Chunks_ind.Non_monotonic 1)
        (fun () ->
          Chunks_ind.fill_chunks_ind pool ~out ~offsets ~f:(fun _ _ -> 1)))

let test_chunks_ind_detects_out_of_bounds () =
  in_pool (fun pool ->
      let out = Array.make 4 0 in
      let offsets = [| 0; 2; 7 |] in
      Alcotest.check_raises "range" (Chunks_ind.Range_out_of_bounds 7) (fun () ->
          Chunks_ind.fill_chunks_ind pool ~out ~offsets ~f:(fun _ _ -> 1)))

let test_chunks_ind_unchecked_skips_validation () =
  in_pool (fun pool ->
      (* Valid offsets with check disabled still work. *)
      let out = Array.make 6 0 in
      let offsets = [| 0; 2; 6 |] in
      Chunks_ind.fill_chunks_ind ~check:false pool ~out ~offsets
        ~f:(fun chunk _ -> chunk + 1);
      Alcotest.(check bool) "written" true (out = [| 1; 1; 2; 2; 2; 2 |]))

let test_chunks_ind_empty_cases () =
  in_pool (fun pool ->
      let out = Array.make 4 7 in
      Chunks_ind.fill_chunks_ind pool ~out ~offsets:[||] ~f:(fun _ _ -> 0);
      Chunks_ind.fill_chunks_ind pool ~out ~offsets:[| 2 |] ~f:(fun _ _ -> 0);
      Alcotest.(check bool) "untouched" true (out = [| 7; 7; 7; 7 |]))

(* ---------- properties ---------- *)

let prop_map_matches_sequential =
  QCheck.Test.make ~name:"Par_array.map = Array.map" ~count:30
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () -> Par_array.map pool succ a = Array.map succ a)))

let prop_scatter_checked_permutation =
  QCheck.Test.make ~name:"checked scatter inverts gather on permutations"
    ~count:30 QCheck.small_nat (fun seed ->
      let n = 200 in
      let offsets = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create seed) n in
      let src = Array.init n Fun.id in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              let out = Array.make n (-1) in
              Scatter.checked pool ~out ~offsets ~src;
              (* gathering back through offsets recovers src *)
              Scatter.gather pool ~src:out ~offsets = src)))

let prop_validate_strategies_agree =
  (* Values up to 60 against n = 51 and lists up to 120 long, so inputs
     mix range errors, duplicates forced by length, and valid sets.  Both
     strategies name the smallest duplicated value; with several
     out-of-range values either may win, so only the fault is compared. *)
  QCheck.Test.make ~name:"mark and sort uniqueness checks agree" ~count:200
    QCheck.(list_of_size Gen.(0 -- 120) (int_bound 60))
    (fun xs ->
      let n = 51 in
      let offsets = Array.of_list xs in
      let outcome strategy pool =
        match Scatter.validate_offsets ~strategy pool ~n offsets with
        | () -> `Ok
        | exception Scatter.Duplicate_offset o -> `Duplicate o
        | exception Scatter.Offset_out_of_range o ->
          if o < 0 || o >= n then `Out_of_range else `Wrong_range_value
      in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              let mark = outcome Scatter.Mark_table pool in
              mark <> `Wrong_range_value
              && mark = outcome Scatter.Sort_based pool)))

let () =
  Alcotest.run "rpb_core"
    [
      ( "pattern",
        [
          Alcotest.test_case "safety table" `Quick test_pattern_safety_table;
          Alcotest.test_case "names roundtrip" `Quick test_pattern_names_roundtrip;
          Alcotest.test_case "irregularity index" `Quick test_pattern_irregularity;
          Alcotest.test_case "classification" `Quick test_pattern_classification;
        ] );
      ( "par_array",
        [
          Alcotest.test_case "map" `Quick test_par_map;
          Alcotest.test_case "map_inplace stride" `Quick test_par_map_inplace_stride;
          Alcotest.test_case "init/fill" `Quick test_par_init_and_fill;
          Alcotest.test_case "reduce sum" `Quick test_par_reduce_matches_listing3;
          Alcotest.test_case "min/max/count" `Quick test_par_minmax_count;
          Alcotest.test_case "chunks block" `Quick test_par_chunks_block;
          Alcotest.test_case "copy/blit/reverse" `Quick test_par_copy_blit_reverse;
          QCheck_alcotest.to_alcotest prop_map_matches_sequential;
        ] );
      ( "scatter",
        [
          Alcotest.test_case "permutation all modes" `Quick
            test_scatter_permutation_all_modes;
          Alcotest.test_case "checked detects duplicate" `Quick
            test_scatter_checked_detects_duplicate;
          Alcotest.test_case "checked detects out of range" `Quick
            test_scatter_checked_detects_out_of_range;
          Alcotest.test_case "unchecked silent corruption" `Quick
            test_scatter_unchecked_accepts_duplicates_silently;
          Alcotest.test_case "mark table abort-safe" `Quick
            test_scatter_checked_mark_table_abort_safe;
          Alcotest.test_case "checked raises before writing" `Quick
            test_scatter_checked_raises_before_writing;
          Alcotest.test_case "checked ignores stale stamps" `Quick
            test_scatter_checked_stale_stamps;
          Alcotest.test_case "length mismatch" `Quick test_scatter_length_mismatch;
          Alcotest.test_case "generic atomic rejected" `Quick
            test_scatter_generic_atomic_rejected;
          Alcotest.test_case "gather" `Quick test_gather;
          QCheck_alcotest.to_alcotest prop_scatter_checked_permutation;
          QCheck_alcotest.to_alcotest prop_validate_strategies_agree;
        ] );
      ( "chunks_ind",
        [
          Alcotest.test_case "disjoint fill" `Quick test_chunks_ind_disjoint_fill;
          Alcotest.test_case "non-monotonic detected" `Quick
            test_chunks_ind_detects_non_monotonic;
          Alcotest.test_case "out of bounds detected" `Quick
            test_chunks_ind_detects_out_of_bounds;
          Alcotest.test_case "unchecked" `Quick
            test_chunks_ind_unchecked_skips_validation;
          Alcotest.test_case "empty cases" `Quick test_chunks_ind_empty_cases;
        ] );
    ]
