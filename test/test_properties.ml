(* Cross-cutting properties and edge cases not covered by the per-library
   suites: ordering-sensitivity, degenerate inputs, and API contracts. *)

open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

(* ---------- Order-sensitivity of the parallel primitives ---------- *)

let test_scan_non_commutative_monoid () =
  (* String concatenation is associative but NOT commutative: a block scan
     that reorders operands would corrupt the result. *)
  in_pool (fun pool ->
      let words = Array.init 500 (fun i -> Printf.sprintf "%d," i) in
      let got = Rpb_parseq.Scan.inclusive pool ( ^ ) "" words in
      let expected = Array.copy words in
      let acc = ref "" in
      Array.iteri
        (fun i w ->
          acc := !acc ^ w;
          expected.(i) <- !acc)
        words;
      Alcotest.(check bool) "concat scan exact" true (got = expected))

let test_reduce_non_commutative () =
  in_pool (fun pool ->
      let words = Array.init 300 (fun i -> string_of_int (i mod 10)) in
      let got = Rpb_core.Par_array.reduce pool ( ^ ) "" words in
      let expected = Array.fold_left ( ^ ) "" words in
      Alcotest.(check string) "concat reduce exact" expected got)

let test_merge_custom_comparator () =
  in_pool (fun pool ->
      let desc a b = compare b a in
      let a = [| 9; 7; 5 |] and b = [| 8; 6; 1 |] in
      Alcotest.(check bool) "descending merge" true
        (Rpb_parseq.Merge.merge pool ~cmp:desc a b = [| 9; 8; 7; 6; 5; 1 |]))

let test_sort_all_equal_keys () =
  in_pool (fun pool ->
      let a = Array.make 10_000 42 in
      Alcotest.(check bool) "sample sort constant input" true
        (Rpb_parseq.Sort.sample_sort pool ~cmp:compare a = a);
      Alcotest.(check bool) "merge sort constant input" true
        (Rpb_parseq.Sort.merge_sort pool ~cmp:compare a = a))

(* ---------- Pool contract edges ---------- *)

let test_parallel_for_grain_exceeds_range () =
  in_pool (fun pool ->
      let hits = ref 0 in
      Pool.parallel_for ~grain:1_000_000 ~start:0 ~finish:10
        ~body:(fun _ -> incr hits)
        pool;
      Alcotest.(check int) "all visited" 10 !hits)

let test_parallel_for_negative_range () =
  in_pool (fun pool ->
      let hits = Rpb_prim.Atomic_array.make 20 0 in
      Pool.parallel_for ~start:(-5) ~finish:5
        ~body:(fun i -> ignore (Rpb_prim.Atomic_array.fetch_and_add hits (i + 10) 1))
        pool;
      let count = ref 0 in
      for i = 0 to 19 do
        count := !count + Rpb_prim.Atomic_array.get hits i
      done;
      Alcotest.(check int) "negative start covered" 10 !count)

let test_pool_create_rejects_zero () =
  match Pool.create ~num_workers:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero workers accepted"

let test_nested_run_rejected () =
  with_pool 2 (fun pool ->
      Pool.run pool (fun () ->
          match Pool.run pool (fun () -> 0) with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "nested run accepted"))

(* ---------- Pattern taxonomy consistency ---------- *)

let test_classification_consistent_with_safety () =
  (* Any pattern classified for a REGULAR shape must be fearless. *)
  let shapes =
    Rpb_core.Pattern.
      [
        { data = Structured; op = Read_only; dispatch = Static; ordering = Unordered };
        { data = Unstructured; op = Read_only; dispatch = Static; ordering = Unordered };
        { data = Structured; op = Local_read_write; dispatch = Static; ordering = Unordered };
      ]
  in
  List.iter
    (fun shape ->
      Alcotest.(check bool) "shape is regular" true (Rpb_core.Pattern.is_regular shape);
      List.iter
        (fun access ->
          Alcotest.(check string) "regular => fearless" "F"
            (Rpb_core.Pattern.fear_name (Rpb_core.Pattern.safety access)))
        (Rpb_core.Pattern.classify_access shape))
    shapes

let test_irregularity_monotone () =
  (* Making any dimension irregular never lowers the index. *)
  let base =
    Rpb_core.Pattern.
      { data = Structured; op = Read_only; dispatch = Static; ordering = Unordered }
  in
  let variants =
    Rpb_core.Pattern.
      [
        { base with data = Unstructured };
        { base with op = Local_read_write };
        { base with op = Arbitrary_read_write };
        { base with dispatch = Dynamic };
        { base with ordering = Ordered };
      ]
  in
  let b = Rpb_core.Pattern.irregularity_index base in
  List.iter
    (fun v ->
      Alcotest.(check bool) "index grows" true
        (Rpb_core.Pattern.irregularity_index v > b))
    variants

(* ---------- Graph construction property ---------- *)

let naive_csr n edges =
  let buckets = Array.make n [] in
  Array.iter (fun (u, v) -> buckets.(u) <- v :: buckets.(u)) edges;
  Array.map (fun l -> List.rev l) buckets

let prop_csr_matches_naive =
  QCheck.Test.make ~name:"Csr.of_edges = naive adjacency" ~count:30
    QCheck.(pair small_nat (list (pair (int_bound 19) (int_bound 19))))
    (fun (_, edge_list) ->
      let edges = Array.of_list edge_list in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              let g = Rpb_graph.Csr.of_edges pool ~n:20 edges in
              let expected = naive_csr 20 edges in
              let ok = ref true in
              for u = 0 to 19 do
                let got =
                  List.rev (Rpb_graph.Csr.fold_neighbors g u ~init:[] ~f:(fun acc v -> v :: acc))
                in
                if got <> expected.(u) then ok := false
              done;
              !ok)))

let test_csr_weight_range () =
  in_pool (fun pool ->
      let g = Rpb_graph.Generate.rmat pool ~scale:8 ~edge_factor:4 ~weighted:true () in
      for e = 0 to Rpb_graph.Csr.m g - 1 do
        let w = Rpb_graph.Csr.edge_weight g e in
        if w < 1 || w > 100 then Alcotest.failf "weight %d out of range" w
      done)

(* ---------- Text edges ---------- *)

let test_sa_distinct_chars () =
  in_pool (fun pool ->
      (* All-distinct characters: one doubling round should settle it. *)
      let s = "zyxwvutsrq" in
      let sa = Rpb_text.Suffix_array.build pool s in
      Alcotest.(check bool) "valid" true (Rpb_text.Suffix_array.is_suffix_array s sa);
      (* Reverse-sorted input: suffix j is smaller than suffix i for j > i. *)
      Alcotest.(check bool) "reversed" true
        (Rpb_prim.Util.array_for_all_i (fun j p -> p = 9 - j) sa))

let test_bwt_degenerate () =
  in_pool (fun pool ->
      Alcotest.(check string) "empty roundtrip" ""
        (Rpb_text.Bwt.decode pool (Rpb_text.Bwt.encode pool ""));
      Alcotest.(check string) "single char" "q"
        (Rpb_text.Bwt.decode pool (Rpb_text.Bwt.encode pool "q")))

let test_lcp_all_same () =
  in_pool (fun pool ->
      let s = String.make 64 'a' in
      let sa = Rpb_text.Suffix_array.build pool s in
      let lcp = Rpb_text.Lcp.kasai pool s ~sa in
      (* sa = [63..0]; lcp.(j) = j - 1 ... actually lcp of consecutive
         all-'a' suffixes of lengths j and j+1 is j. *)
      let ok = ref true in
      for j = 1 to 63 do
        if lcp.(j) <> j then ok := false
      done;
      Alcotest.(check bool) "lcp ladder" true !ok)

(* ---------- Refinement contract ---------- *)

let test_refine_respects_max_rounds () =
  in_pool (fun pool ->
      let points = Rpb_geom.Pointgen.kuzmin ~n:200 ~seed:91 in
      let mesh = Rpb_geom.Delaunay.triangulate points in
      let stats = Rpb_geom.Refine.refine ~min_angle:30.0 ~max_rounds:2 pool mesh in
      Alcotest.(check bool) "round cap" true (stats.Rpb_geom.Refine.rounds <= 2);
      Alcotest.(check bool) "mesh still valid" true
        (Rpb_geom.Mesh.validate mesh = Ok ()))

(* ---------- Multiqueue edges ---------- *)

let test_mq_empty_pop_and_reuse () =
  let q = Rpb_mq.Multiqueue.create ~queues:4 () in
  Alcotest.(check (option (pair int int))) "empty pop" None (Rpb_mq.Multiqueue.pop q);
  Rpb_mq.Multiqueue.push q ~pri:1 10;
  Alcotest.(check bool) "non-empty" false (Rpb_mq.Multiqueue.is_empty q);
  ignore (Rpb_mq.Multiqueue.pop q);
  Alcotest.(check (option (pair int int))) "empty again" None (Rpb_mq.Multiqueue.pop q);
  (* Reuse after drain. *)
  Rpb_mq.Multiqueue.push q ~pri:2 20;
  Alcotest.(check (option (pair int int))) "reused" (Some (2, 20))
    (Rpb_mq.Multiqueue.pop q)

let test_mq_negative_priorities () =
  let q = Rpb_mq.Multiqueue.create ~queues:1 () in
  Rpb_mq.Multiqueue.push q ~pri:5 1;
  Rpb_mq.Multiqueue.push q ~pri:(-3) 2;
  Rpb_mq.Multiqueue.push q ~pri:0 3;
  Alcotest.(check (option (pair int int))) "negative first" (Some (-3, 2))
    (Rpb_mq.Multiqueue.pop q)

(* ---------- Chash edges ---------- *)

let test_chash_zero_and_max_keys () =
  let t = Rpb_chash.Chash.create ~capacity:8 in
  Alcotest.(check bool) "key 0" true (Rpb_chash.Chash.insert t 0);
  Alcotest.(check bool) "key 0 member" true (Rpb_chash.Chash.mem t 0);
  let big = max_int - 1 in
  Alcotest.(check bool) "huge key" true (Rpb_chash.Chash.insert t big);
  Alcotest.(check bool) "huge member" true (Rpb_chash.Chash.mem t big)

(* ---------- Fear-spectrum properties (seeded in-test generators) ---------- *)

(* Random permutations: every scatter mode must agree element-wise with the
   sequential oracle [out.(offsets.(i)) <- src.(i)] — the paper's claim that
   all fear-spectrum variants compute the same result on valid inputs. *)
let test_scatter_modes_agree_with_oracle () =
  in_pool (fun pool ->
      let rng = Rpb_prim.Rng.create 67 in
      for _trial = 1 to 25 do
        let n = 1 + Rpb_prim.Rng.int rng 5000 in
        let offsets = Rpb_prim.Rng.permutation rng n in
        let src = Array.init n (fun i -> (i * 31) land 1023) in
        let oracle = Array.make n (-1) in
        for i = 0 to n - 1 do
          oracle.(offsets.(i)) <- src.(i)
        done;
        List.iter
          (fun mode ->
            match mode with
            | Rpb_core.Scatter.Atomic ->
              let out = Rpb_prim.Atomic_array.make n (-1) in
              Rpb_core.Scatter.atomic pool ~out ~offsets ~src;
              for j = 0 to n - 1 do
                if Rpb_prim.Atomic_array.get out j <> oracle.(j) then
                  Alcotest.failf "atomic disagrees at %d (n=%d)" j n
              done
            | _ ->
              let out = Array.make n (-1) in
              Rpb_core.Scatter.scatter mode pool ~out ~offsets ~src;
              if out <> oracle then
                Alcotest.failf "%s disagrees with oracle (n=%d)"
                  (Rpb_core.Scatter.mode_name mode) n)
          Rpb_core.Scatter.all_modes
      done)

(* Random monotone splits: the parallel ranged-indirect fill must equal
   sequential chunking, including empty chunks and slots no chunk covers. *)
let test_chunks_ind_matches_sequential_chunking () =
  in_pool (fun pool ->
      let rng = Rpb_prim.Rng.create 71 in
      for _trial = 1 to 25 do
        let n = 1 + Rpb_prim.Rng.int rng 4000 in
        let pieces = 1 + Rpb_prim.Rng.int rng 32 in
        let splits =
          Array.init (pieces + 1) (fun _ -> Rpb_prim.Rng.int rng (n + 1))
        in
        Array.sort compare splits;
        let f i j = (i * 1_000_003) + j in
        let got = Array.make n (-1) in
        Rpb_core.Chunks_ind.fill_chunks_ind pool ~out:got ~offsets:splits ~f;
        let expected = Array.make n (-1) in
        for i = 0 to pieces - 1 do
          for j = splits.(i) to splits.(i + 1) - 1 do
            expected.(j) <- f i j
          done
        done;
        if got <> expected then
          Alcotest.failf "chunks disagree (n=%d pieces=%d)" n pieces
      done)

(* The instrumented (shadow-store) path must be observationally identical to
   the zero-cost plain-array path on valid inputs — same payload, no races. *)
let test_shadow_store_write_through_agrees () =
  in_pool (fun pool ->
      Rpb_check.Shadow.with_instrumentation true @@ fun () ->
      let rng = Rpb_prim.Rng.create 73 in
      for _trial = 1 to 10 do
        let n = 1 + Rpb_prim.Rng.int rng 3000 in
        let offsets = Rpb_prim.Rng.permutation rng n in
        let src = Array.init n Fun.id in
        let plain = Array.make n (-1) in
        Rpb_core.Scatter.unchecked pool ~out:plain ~offsets ~src;
        let shadow = Rpb_check.Shadow.create ~pool (Array.make n (-1)) in
        Rpb_check.Instrument.unchecked pool ~out:shadow ~offsets ~src;
        Alcotest.(check bool) "write-through agrees" true
          (Rpb_check.Shadow.payload shadow = plain);
        Alcotest.(check int) "no false positives" 0
          (Rpb_check.Shadow.race_count shadow)
      done)

(* ---------- Splitter harness ---------- *)

(* Every registry benchmark x {1, 2, 4} workers must reproduce the digest of
   its own sequential run — the same within-instance comparison the
   differential oracle makes.  A splitter that drops, duplicates, or
   reorders a leaf observably cannot pass; 1 worker additionally pins the
   sequential-degradation path. *)
let test_registry_digests_under_splitters () =
  let module Common = Rpb_benchmarks.Common in
  List.iter
    (fun (entry : Common.entry) ->
      List.iter
        (fun workers ->
          let pool = Pool.create ~num_workers:workers () in
          Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
          Pool.run pool (fun () ->
              let input = List.hd entry.Common.inputs in
              let prepared = entry.Common.prepare pool ~input ~scale:0 in
              prepared.Common.run_seq ();
              let reference = prepared.Common.snapshot () in
              prepared.Common.run_par Rpb_benchmarks.Mode.Unsafe;
              let got = prepared.Common.snapshot () in
              if not (prepared.Common.verify ()) then
                Alcotest.failf "%s with %d workers fails verify"
                  entry.Common.name workers;
              if reference <> got then
                Alcotest.failf
                  "%s with %d workers diverges from its sequential digest"
                  entry.Common.name workers))
        [ 1; 2; 4 ])
    Rpb_benchmarks.Registry.all

let () =
  Alcotest.run "rpb_properties"
    [
      ( "ordering",
        [
          Alcotest.test_case "non-commutative scan" `Quick
            test_scan_non_commutative_monoid;
          Alcotest.test_case "non-commutative reduce" `Quick
            test_reduce_non_commutative;
          Alcotest.test_case "custom comparator merge" `Quick
            test_merge_custom_comparator;
          Alcotest.test_case "constant-key sorts" `Quick test_sort_all_equal_keys;
        ] );
      ( "pool_edges",
        [
          Alcotest.test_case "grain > range" `Quick
            test_parallel_for_grain_exceeds_range;
          Alcotest.test_case "negative range" `Quick test_parallel_for_negative_range;
          Alcotest.test_case "zero workers rejected" `Quick
            test_pool_create_rejects_zero;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
        ] );
      ( "pattern_consistency",
        [
          Alcotest.test_case "regular => fearless" `Quick
            test_classification_consistent_with_safety;
          Alcotest.test_case "irregularity monotone" `Quick test_irregularity_monotone;
        ] );
      ( "graph_properties",
        [
          QCheck_alcotest.to_alcotest prop_csr_matches_naive;
          Alcotest.test_case "weight range" `Quick test_csr_weight_range;
        ] );
      ( "text_edges",
        [
          Alcotest.test_case "distinct chars" `Quick test_sa_distinct_chars;
          Alcotest.test_case "degenerate bwt" `Quick test_bwt_degenerate;
          Alcotest.test_case "all-equal lcp" `Quick test_lcp_all_same;
        ] );
      ( "geom_edges",
        [ Alcotest.test_case "max_rounds respected" `Quick test_refine_respects_max_rounds ] );
      ( "mq_edges",
        [
          Alcotest.test_case "empty/reuse" `Quick test_mq_empty_pop_and_reuse;
          Alcotest.test_case "negative priorities" `Quick test_mq_negative_priorities;
        ] );
      ( "chash_edges",
        [ Alcotest.test_case "extreme keys" `Quick test_chash_zero_and_max_keys ] );
      ( "fear_spectrum",
        [
          Alcotest.test_case "scatter modes = oracle" `Quick
            test_scatter_modes_agree_with_oracle;
          Alcotest.test_case "chunks = sequential chunking" `Quick
            test_chunks_ind_matches_sequential_chunking;
          Alcotest.test_case "shadow store write-through" `Quick
            test_shadow_store_write_through_agrees;
        ] );
      ( "splitters",
        [
          Alcotest.test_case "registry digests at P=1,2,4" `Quick
            test_registry_digests_under_splitters;
        ] );
    ]
