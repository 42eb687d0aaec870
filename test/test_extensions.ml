(* Tests for the PBBS-technique extensions: list ranking, random
   permutation, group_by, PageRank, and BWT's benign-race phase. *)

open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

(* ---------- List_ranking ---------- *)

let test_list_ranking_chain () =
  in_pool (fun pool ->
      (* 0 -> 1 -> 2 -> 3 -> end *)
      let next = [| 1; 2; 3; -1 |] in
      let dist = Rpb_parseq.List_ranking.rank pool ~next in
      Alcotest.(check bool) "distances" true (dist = [| 3; 2; 1; 0 |]))

let test_list_ranking_multiple_chains () =
  in_pool (fun pool ->
      (* chains: 0->2->end ; 1->end ; 3->4->5->end *)
      let next = [| 2; -1; -1; 4; 5; -1 |] in
      let dist = Rpb_parseq.List_ranking.rank pool ~next in
      Alcotest.(check bool) "per-chain distances" true
        (dist = [| 1; 0; 0; 2; 1; 0 |]))

let test_list_ranking_long_chain () =
  in_pool (fun pool ->
      let n = 10_000 in
      (* A scrambled chain: node p(i) -> p(i+1). *)
      let perm = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create 4) n in
      let next = Array.make n (-1) in
      for i = 0 to n - 2 do
        next.(perm.(i)) <- perm.(i + 1)
      done;
      let dist = Rpb_parseq.List_ranking.rank pool ~next in
      let ok = ref true in
      for i = 0 to n - 1 do
        if dist.(perm.(i)) <> n - 1 - i then ok := false
      done;
      Alcotest.(check bool) "scrambled chain ranks" true !ok)

let test_list_ranking_cycle_detected () =
  in_pool (fun pool ->
      let next = [| 1; 2; 0 |] in
      match Rpb_parseq.List_ranking.rank pool ~next with
      | _ -> Alcotest.fail "cycle must be rejected"
      | exception Invalid_argument _ -> ())

let test_list_ranking_cycle_positions () =
  in_pool (fun pool ->
      (* cycle 0 -> 3 -> 1 -> 2 -> 0 *)
      let next = [| 3; 2; 0; 1 |] in
      let pos = Rpb_parseq.List_ranking.rank_cycle pool ~next ~start:0 in
      Alcotest.(check bool) "positions" true (pos = [| 0; 2; 3; 1 |]))

let prop_list_ranking_random_permutation_cycles =
  QCheck.Test.make ~name:"rank_cycle = sequential walk" ~count:20
    QCheck.small_nat
    (fun seed ->
      let n = 500 in
      (* A random single-cycle permutation via a random order. *)
      let order = Rpb_prim.Rng.permutation (Rpb_prim.Rng.create seed) n in
      let next = Array.make n 0 in
      for i = 0 to n - 1 do
        next.(order.(i)) <- order.((i + 1) mod n)
      done;
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              let start = order.(0) in
              let pos = Rpb_parseq.List_ranking.rank_cycle pool ~next ~start in
              (* Sequential walk oracle. *)
              let ok = ref true in
              let cur = ref start in
              for t = 0 to n - 1 do
                if pos.(!cur) <> t then ok := false;
                cur := next.(!cur)
              done;
              !ok)))

(* ---------- Random_perm (deterministic reservations) ---------- *)

let test_random_perm_equals_sequential () =
  in_pool (fun pool ->
      List.iter
        (fun (seed, n) ->
          let par = Rpb_parseq.Random_perm.permutation pool ~seed n in
          let seq = Rpb_parseq.Random_perm.permutation_seq ~seed n in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d n %d identical" seed n)
            true (par = seq))
        [ (1, 1); (2, 2); (3, 100); (4, 1000); (5, 10_000) ])

let test_random_perm_is_permutation () =
  in_pool (fun pool ->
      let n = 5_000 in
      let p = Rpb_parseq.Random_perm.permutation pool ~seed:6 n in
      let seen = Array.make n false in
      Array.iter (fun x -> seen.(x) <- true) p;
      Alcotest.(check bool) "bijection" true (Array.for_all Fun.id seen))

let test_random_perm_shuffle_payload () =
  in_pool (fun pool ->
      let words = Array.init 500 string_of_int in
      let shuffled = Array.copy words in
      Rpb_parseq.Random_perm.shuffle_inplace pool ~seed:7 shuffled;
      Alcotest.(check bool) "same multiset" true
        (List.sort compare (Array.to_list shuffled)
        = List.sort compare (Array.to_list words));
      Alcotest.(check bool) "actually moved" true (shuffled <> words);
      (* Same permutation as the int version. *)
      let p = Rpb_parseq.Random_perm.permutation pool ~seed:7 500 in
      Alcotest.(check bool) "matches permutation" true
        (Rpb_prim.Util.array_for_all_i (fun i x -> x = words.(p.(i))) shuffled))

let test_random_perm_uniformity_smoke () =
  in_pool (fun pool ->
      (* First-position distribution over many seeds should spread. *)
      let n = 16 in
      let counts = Array.make n 0 in
      for seed = 0 to 399 do
        let p = Rpb_parseq.Random_perm.permutation pool ~seed n in
        counts.(p.(0)) <- counts.(p.(0)) + 1
      done;
      Array.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "roughly uniform (%d)" c)
            true
            (c > 5 && c < 70))
        counts)

(* ---------- Group_by ---------- *)

let test_group_by_basic () =
  in_pool (fun pool ->
      let a = [| ("a", 1); ("b", 0); ("c", 1); ("d", 2); ("e", 0) |] in
      let groups = Rpb_parseq.Group_by.group_by pool ~key:snd ~buckets:4 a in
      Alcotest.(check int) "group count" 3 (Array.length groups);
      let k0, g0 = groups.(0) in
      Alcotest.(check int) "key 0" 0 k0;
      Alcotest.(check bool) "stable group 0" true (g0 = [| ("b", 0); ("e", 0) |]);
      let k1, g1 = groups.(1) in
      Alcotest.(check bool) "group 1" true (k1 = 1 && g1 = [| ("a", 1); ("c", 1) |]))

let test_group_by_counts () =
  in_pool (fun pool ->
      let a = Array.init 1000 (fun i -> i) in
      let counts = Rpb_parseq.Group_by.count_by pool ~key:(fun x -> x mod 10) ~buckets:10 a in
      Alcotest.(check bool) "uniform" true (Array.for_all (fun c -> c = 100) counts);
      Alcotest.(check bool) "empty input" true
        (Rpb_parseq.Group_by.group_by pool ~key:Fun.id ~buckets:4 ([||] : int array) = [||]))

(* ---------- Pagerank ---------- *)

let test_pagerank_sums_to_one () =
  in_pool (fun pool ->
      let g = Rpb_graph.Generate.by_name pool ~name:"rmat" ~scale:9 ~weighted:false in
      let r = Rpb_graph.Pagerank.compute pool g in
      let total = Array.fold_left ( +. ) 0.0 r in
      Alcotest.(check (float 1e-6)) "mass conserved" 1.0 total)

let test_pagerank_pull_matches_seq_push () =
  in_pool (fun pool ->
      let g = Rpb_graph.Generate.by_name pool ~name:"rmat" ~scale:8 ~weighted:false in
      let par = Rpb_graph.Pagerank.compute ~method_:Rpb_graph.Pagerank.Pull pool g in
      let seq = Rpb_graph.Pagerank.compute_seq g in
      Alcotest.(check bool)
        (Printf.sprintf "max diff %.2e" (Rpb_graph.Pagerank.max_abs_diff par seq))
        true
        (Rpb_graph.Pagerank.max_abs_diff par seq < 1e-9))

let test_pagerank_mutex_matches_seq () =
  in_pool (fun pool ->
      let g = Rpb_graph.Generate.by_name pool ~name:"road" ~scale:8 ~weighted:false in
      let par = Rpb_graph.Pagerank.compute ~method_:Rpb_graph.Pagerank.Push_mutex pool g in
      let seq = Rpb_graph.Pagerank.compute_seq g in
      Alcotest.(check bool) "mutex push exact" true
        (Rpb_graph.Pagerank.max_abs_diff par seq < 1e-9))

let test_pagerank_star_ranks_center_highest () =
  in_pool (fun pool ->
      (* Star: everyone points to 0. *)
      let n = 50 in
      let edges = Array.init (n - 1) (fun i -> (i + 1, 0)) in
      let g = Rpb_graph.Csr.of_edges pool ~n edges in
      let r = Rpb_graph.Pagerank.compute pool g in
      for v = 1 to n - 1 do
        Alcotest.(check bool) "center dominates" true (r.(0) > r.(v))
      done)

let test_pagerank_racy_at_one_worker_is_exact () =
  with_pool 1 (fun pool ->
      Pool.run pool (fun () ->
          let g = Rpb_graph.Generate.by_name pool ~name:"rmat" ~scale:7 ~weighted:false in
          let racy =
            Rpb_graph.Pagerank.compute ~method_:Rpb_graph.Pagerank.Push_float_racy
              pool g
          in
          let seq = Rpb_graph.Pagerank.compute_seq g in
          Alcotest.(check bool) "single worker = no races = exact" true
            (Rpb_graph.Pagerank.max_abs_diff racy seq < 1e-9)))

(* ---------- Bwt benign race ---------- *)

let test_distinct_chars_modes_agree () =
  in_pool (fun pool ->
      let s = Rpb_text.Text_gen.wiki ~size:5_000 ~seed:23 in
      let racy = Rpb_text.Bwt.distinct_chars `Racy pool s in
      let atomic = Rpb_text.Bwt.distinct_chars `Atomic pool s in
      Alcotest.(check bool) "benign race = atomic result" true (racy = atomic);
      (* Oracle. *)
      let expected = Array.make 256 false in
      String.iter (fun c -> expected.(Char.code c) <- true) s;
      Alcotest.(check bool) "matches oracle" true (atomic = expected))

let () =
  Alcotest.run "rpb_extensions"
    [
      ( "list_ranking",
        [
          Alcotest.test_case "chain" `Quick test_list_ranking_chain;
          Alcotest.test_case "multiple chains" `Quick
            test_list_ranking_multiple_chains;
          Alcotest.test_case "long scrambled chain" `Quick
            test_list_ranking_long_chain;
          Alcotest.test_case "cycle detected" `Quick test_list_ranking_cycle_detected;
          Alcotest.test_case "cycle positions" `Quick
            test_list_ranking_cycle_positions;
          QCheck_alcotest.to_alcotest prop_list_ranking_random_permutation_cycles;
        ] );
      ( "random_perm",
        [
          Alcotest.test_case "parallel = sequential shuffle" `Quick
            test_random_perm_equals_sequential;
          Alcotest.test_case "bijection" `Quick test_random_perm_is_permutation;
          Alcotest.test_case "payload shuffle" `Quick test_random_perm_shuffle_payload;
          Alcotest.test_case "uniformity smoke" `Quick
            test_random_perm_uniformity_smoke;
        ] );
      ( "group_by",
        [
          Alcotest.test_case "basic" `Quick test_group_by_basic;
          Alcotest.test_case "counts" `Quick test_group_by_counts;
        ] );
      ( "pagerank",
        [
          Alcotest.test_case "mass conserved" `Quick test_pagerank_sums_to_one;
          Alcotest.test_case "pull = seq push" `Quick
            test_pagerank_pull_matches_seq_push;
          Alcotest.test_case "mutex = seq" `Quick test_pagerank_mutex_matches_seq;
          Alcotest.test_case "star center" `Quick
            test_pagerank_star_ranks_center_highest;
          Alcotest.test_case "racy exact at 1 worker" `Quick
            test_pagerank_racy_at_one_worker_is_exact;
        ] );
      ( "bwt_parallel",
        [
          Alcotest.test_case "benign race distinct chars" `Quick
            test_distinct_chars_modes_agree;
        ] );
    ]
