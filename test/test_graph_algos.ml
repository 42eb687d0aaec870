(* Tests for the parallel graph algorithms: MIS, matching, spanning forests,
   and the MultiQueue traversals. *)

open Rpb_graph
open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

let test_graphs pool =
  [
    ("rmat", Csr.symmetrize pool (Generate.rmat pool ~scale:9 ~edge_factor:4 ()));
    ("road", Generate.road_grid pool ~rows:20 ~cols:20 ());
    ("link", Csr.symmetrize pool (Generate.power_law pool ~scale:8 ~edge_factor:8 ()));
  ]

(* ---------- MIS ---------- *)

let test_mis_valid_on_suite () =
  in_pool (fun pool ->
      List.iter
        (fun (name, g) ->
          let sel = Mis.compute pool g in
          Alcotest.(check bool) (name ^ " maximal independent") true
            (Reference.is_maximal_independent_set g sel))
        (test_graphs pool))

let test_mis_deterministic_and_matches_seq () =
  in_pool (fun pool ->
      let g = Generate.road_grid pool ~rows:15 ~cols:15 () in
      let a = Mis.compute pool g in
      let b = Mis.compute pool g in
      Alcotest.(check bool) "parallel deterministic" true (a = b);
      let s = Mis.compute_seq g in
      Alcotest.(check bool) "matches sequential greedy" true (a = s))

let test_mis_plain_status_mode () =
  in_pool (fun pool ->
      let g = Csr.symmetrize pool (Generate.rmat pool ~scale:8 ~edge_factor:4 ()) in
      let sel = Mis.compute ~sync:Mis.Plain_status pool g in
      Alcotest.(check bool) "plain-status still maximal independent" true
        (Reference.is_maximal_independent_set g sel);
      Alcotest.(check bool) "modes agree" true (sel = Mis.compute pool g))

let test_mis_empty_and_singleton () =
  in_pool (fun pool ->
      let empty = Csr.of_edges pool ~n:5 [||] in
      let sel = Mis.compute pool empty in
      Alcotest.(check bool) "no edges: all in" true (Array.for_all Fun.id sel);
      let loop = Csr.of_edges pool ~n:1 [| (0, 0) |] in
      let sel = Mis.compute pool loop in
      Alcotest.(check bool) "self loop ignored" true sel.(0))

(* ---------- Matching ---------- *)

let test_mm_valid_on_suite () =
  in_pool (fun pool ->
      List.iter
        (fun (name, g) ->
          let edges = Csr.edges g in
          let sel = Matching.compute pool ~edges ~n:(Csr.n g) in
          Alcotest.(check bool) (name ^ " maximal matching") true
            (Reference.is_maximal_matching g ~edges ~selected:sel))
        (test_graphs pool))

let test_mm_matches_seq () =
  in_pool (fun pool ->
      let g = Generate.road_grid pool ~rows:12 ~cols:12 () in
      let edges = Csr.edges g in
      let par = Matching.compute pool ~edges ~n:(Csr.n g) in
      let seq = Matching.compute_seq ~n:(Csr.n g) edges in
      Alcotest.(check bool) "same matching" true (par = seq))

let test_mm_self_loops_never_selected () =
  in_pool (fun pool ->
      let edges = [| (0, 0); (0, 1); (1, 1) |] in
      let sel = Matching.compute pool ~edges ~n:2 in
      Alcotest.(check bool) "loop 0" false sel.(0);
      Alcotest.(check bool) "loop 2" false sel.(2);
      Alcotest.(check bool) "real edge selected" true sel.(1))

(* ---------- Reference checks against naive definitions ---------- *)

(* A random graph on up to 12 vertices from a raw edge list (self-loops,
   duplicates and isolated vertices all occur), as a directed CSR and as its
   symmetric closure. *)
let csr_of_edges ~n edge_list =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) edge_list in
  let offsets = Array.make (n + 1) 0 in
  List.iter (fun (u, _) -> offsets.(u + 1) <- offsets.(u + 1) + 1) sorted;
  for u = 1 to n do
    offsets.(u) <- offsets.(u) + offsets.(u - 1)
  done;
  Csr.make ~offsets ~targets:(Array.of_list (List.map snd sorted)) ()

let random_graphs st =
  let n = 1 + Random.State.int st 12 in
  let m = Random.State.int st (3 * n) in
  let es =
    List.init m (fun _ -> (Random.State.int st n, Random.State.int st n))
  in
  ( csr_of_edges ~n es,
    csr_of_edges ~n (es @ List.map (fun (u, v) -> (v, u)) es) )

let neighbours g u =
  List.init (Csr.degree g u) (fun k -> g.Csr.targets.(g.Csr.offsets.(u) + k))

let naive_mis g sel =
  List.for_all
    (fun u ->
      if sel.(u) then List.for_all (fun v -> v = u || not sel.(v)) (neighbours g u)
      else List.exists (fun v -> sel.(v)) (neighbours g u))
    (List.init (Csr.n g) Fun.id)

(* No vertex is an endpoint of two selected edge ends (a selected self-loop
   counts its vertex twice). *)
let naive_matching g ~edges ~selected =
  let ends =
    List.concat
      (List.mapi
         (fun i (u, v) -> if selected.(i) then [ u; v ] else [])
         (Array.to_list edges))
  in
  List.for_all
    (fun x -> List.length (List.filter (( = ) x) ends) <= 1)
    (List.init (Csr.n g) Fun.id)

let naive_maximal_matching g ~edges ~selected =
  let covered x =
    let hit = ref false in
    Array.iteri
      (fun i (u, v) -> if selected.(i) && (u = x || v = x) then hit := true)
      edges;
    !hit
  in
  naive_matching g ~edges ~selected
  && Array.for_all (fun (u, v) -> u = v || covered u || covered v) edges

let random_mask st len =
  let p = Random.State.float st 1.0 in
  Array.init len (fun _ -> Random.State.float st 1.0 < p)

(* One flipped entry turns a valid selection into a near miss. *)
let flip_one st a =
  let a = Array.copy a in
  if Array.length a > 0 then begin
    let i = Random.State.int st (Array.length a) in
    a.(i) <- not a.(i)
  end;
  a

let prop_reference_checks_agree_with_naive =
  QCheck.Test.make
    ~name:"fused MIS and matching checks = naive definitions" ~count:300
    QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed |] in
      let directed, sym = random_graphs st in
      let mis_agrees g sel =
        Reference.is_maximal_independent_set g sel = naive_mis g sel
      in
      let mm_agrees g sel =
        let edges = Csr.edges g in
        Reference.is_matching g ~edges ~selected:sel
        = naive_matching g ~edges ~selected:sel
        && Reference.is_maximal_matching g ~edges ~selected:sel
           = naive_maximal_matching g ~edges ~selected:sel
      in
      let real_mis = Mis.compute_seq ~seed sym in
      let edges = Csr.edges sym in
      let real_mm = Matching.compute_seq ~seed ~n:(Csr.n sym) edges in
      List.for_all
        (fun g ->
          mis_agrees g (random_mask st (Csr.n g))
          && mm_agrees g (random_mask st (Csr.m g)))
        [ directed; sym ]
      && Reference.is_maximal_independent_set sym real_mis
      && naive_mis sym real_mis
      && mis_agrees sym (flip_one st real_mis)
      && Reference.is_maximal_matching sym ~edges ~selected:real_mm
      && naive_maximal_matching sym ~edges ~selected:real_mm
      && mm_agrees sym (flip_one st real_mm))

(* ---------- Spanning forest ---------- *)

let test_sf_spans () =
  in_pool (fun pool ->
      List.iter
        (fun (name, g) ->
          let forest = Spanning_forest.spanning_forest pool g in
          let ncomp = Reference.num_components g in
          Alcotest.(check int)
            (name ^ " forest size")
            (Csr.n g - ncomp)
            (Array.length forest);
          (* Forest edges must be acyclic and span: replaying them through a
             fresh union-find must succeed for every edge. *)
          let edges = Csr.edges g in
          let uf = Union_find.create (Csr.n g) in
          Array.iter
            (fun e ->
              let u, v = edges.(e) in
              Alcotest.(check bool) "acyclic" true (Union_find.union uf u v))
            forest;
          (* And connect exactly the same components as the graph. *)
          let comp = Reference.connected_components g in
          for u = 0 to Csr.n g - 1 do
            if comp.(u) <> u then
              Alcotest.(check bool) "spans" true (Union_find.same uf u comp.(u))
          done)
        (test_graphs pool))

let test_sf_seq_agrees_on_size () =
  in_pool (fun pool ->
      let g = Generate.road_grid pool ~rows:10 ~cols:10 () in
      let par = Spanning_forest.spanning_forest pool g in
      let seq = Spanning_forest.spanning_forest_seq g in
      Alcotest.(check int) "same size" (Array.length seq) (Array.length par))

(* ---------- MSF ---------- *)

let test_msf_weight_matches_kruskal () =
  in_pool (fun pool ->
      List.iter
        (fun (name, g) ->
          let forest = Spanning_forest.minimum_spanning_forest pool g in
          let w = Spanning_forest.forest_weight g forest in
          Alcotest.(check int)
            (name ^ " MSF weight = Kruskal")
            (Reference.spanning_forest_weight g)
            w)
        [
          ("rmat-w", Csr.symmetrize pool (Generate.rmat pool ~scale:8 ~edge_factor:4 ~weighted:true ()));
          ("road-w", Generate.road_grid pool ~rows:15 ~cols:15 ~weighted:true ());
        ])

let test_msf_is_forest () =
  in_pool (fun pool ->
      let g = Generate.road_grid pool ~rows:12 ~cols:12 ~weighted:true () in
      let forest = Spanning_forest.minimum_spanning_forest pool g in
      let edges = Csr.edges g in
      let uf = Union_find.create (Csr.n g) in
      Array.iter
        (fun e ->
          let u, v = edges.(e) in
          Alcotest.(check bool) "acyclic" true (Union_find.union uf u v))
        forest;
      Alcotest.(check int) "spanning" (Reference.num_components g)
        (Union_find.count_roots pool uf))

let test_msf_deterministic () =
  in_pool (fun pool ->
      let g = Csr.symmetrize pool (Generate.rmat pool ~scale:7 ~edge_factor:5 ~weighted:true ()) in
      let a = Spanning_forest.minimum_spanning_forest pool g in
      let b = Spanning_forest.minimum_spanning_forest pool g in
      Alcotest.(check bool) "same forest" true (a = b))

(* ---------- BFS / SSSP ---------- *)

let test_bfs_matches_reference () =
  in_pool (fun pool ->
      List.iter
        (fun (name, g) ->
          let got = Traverse.bfs pool g ~src:0 in
          let expected = Reference.bfs_distances g ~src:0 in
          Alcotest.(check bool) (name ^ " bfs distances") true (got = expected))
        (test_graphs pool))

let test_sssp_matches_dijkstra () =
  in_pool (fun pool ->
      List.iter
        (fun (name, g) ->
          let got = Traverse.sssp pool g ~src:0 in
          let expected = Reference.dijkstra g ~src:0 in
          Alcotest.(check bool) (name ^ " sssp distances") true (got = expected))
        [
          ("rmat-w", Csr.symmetrize pool (Generate.rmat pool ~scale:8 ~edge_factor:4 ~weighted:true ()));
          ("road-w", Generate.road_grid pool ~rows:16 ~cols:16 ~weighted:true ());
        ])

let test_traversal_unreachable () =
  in_pool (fun pool ->
      (* Two disconnected vertices. *)
      let g = Csr.of_edges pool ~n:3 [| (0, 1) |] in
      let d = Traverse.bfs pool g ~src:0 in
      Alcotest.(check bool) "unreachable stays max_int" true
        (d = [| 0; 1; max_int |]))

let prop_bfs_random_graphs =
  QCheck.Test.make ~name:"MQ bfs = reference on random graphs" ~count:10
    QCheck.small_nat
    (fun seed ->
      with_pool 3 (fun pool ->
          Pool.run pool (fun () ->
              let g = Generate.random_uniform pool ~n:200 ~m:600 ~seed () in
              Traverse.bfs pool g ~src:0 = Reference.bfs_distances g ~src:0)))

let () =
  Alcotest.run "rpb_graph_algos"
    [
      ( "mis",
        [
          Alcotest.test_case "valid on suite" `Quick test_mis_valid_on_suite;
          Alcotest.test_case "deterministic = seq" `Quick
            test_mis_deterministic_and_matches_seq;
          Alcotest.test_case "plain-status mode" `Quick test_mis_plain_status_mode;
          Alcotest.test_case "edge cases" `Quick test_mis_empty_and_singleton;
        ] );
      ( "matching",
        [
          Alcotest.test_case "valid on suite" `Quick test_mm_valid_on_suite;
          Alcotest.test_case "matches seq" `Quick test_mm_matches_seq;
          Alcotest.test_case "self loops" `Quick test_mm_self_loops_never_selected;
        ] );
      ( "reference",
        [ QCheck_alcotest.to_alcotest prop_reference_checks_agree_with_naive ] );
      ( "spanning_forest",
        [
          Alcotest.test_case "spans" `Quick test_sf_spans;
          Alcotest.test_case "seq agrees" `Quick test_sf_seq_agrees_on_size;
        ] );
      ( "msf",
        [
          Alcotest.test_case "weight = kruskal" `Quick test_msf_weight_matches_kruskal;
          Alcotest.test_case "is forest" `Quick test_msf_is_forest;
          Alcotest.test_case "deterministic" `Quick test_msf_deterministic;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs = reference" `Quick test_bfs_matches_reference;
          Alcotest.test_case "sssp = dijkstra" `Quick test_sssp_matches_dijkstra;
          Alcotest.test_case "unreachable" `Quick test_traversal_unreachable;
          QCheck_alcotest.to_alcotest prop_bfs_random_graphs;
        ] );
    ]
