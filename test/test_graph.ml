(* Tests for CSR graphs, generators, union-find, and reference algorithms. *)

open Rpb_graph
open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

(* ---------- Csr ---------- *)

let diamond pool =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  Csr.of_edges pool ~n:4 [| (0, 1); (0, 2); (1, 3); (2, 3) |]

let test_csr_of_edges () =
  in_pool (fun pool ->
      let g = diamond pool in
      Alcotest.(check int) "n" 4 (Csr.n g);
      Alcotest.(check int) "m" 4 (Csr.m g);
      Alcotest.(check int) "deg 0" 2 (Csr.degree g 0);
      Alcotest.(check int) "deg 3" 0 (Csr.degree g 3);
      let nbrs = Csr.fold_neighbors g 0 ~init:[] ~f:(fun acc v -> v :: acc) in
      Alcotest.(check (list int)) "neighbors of 0" [ 2; 1 ] nbrs)

let test_csr_make_validates () =
  let check_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  check_invalid "bad final offset" (fun () ->
      Csr.make ~offsets:[| 0; 1 |] ~targets:[| 0; 0 |] ());
  check_invalid "decreasing offsets" (fun () ->
      Csr.make ~offsets:[| 0; 2; 1; 2 |] ~targets:[| 0; 1 |] ());
  check_invalid "target out of range" (fun () ->
      Csr.make ~offsets:[| 0; 1 |] ~targets:[| 5 |] ());
  check_invalid "weights length" (fun () ->
      Csr.make ~offsets:[| 0; 1 |] ~targets:[| 0 |] ~weights:[| 1; 2 |] ());
  check_invalid "negative weight" (fun () ->
      Csr.make ~offsets:[| 0; 1 |] ~targets:[| 0 |] ~weights:[| -3 |] ())

let test_csr_edges_roundtrip () =
  in_pool (fun pool ->
      let edges = [| (3, 1); (0, 2); (3, 0); (1, 1) |] in
      let g = Csr.of_edges pool ~n:4 edges in
      let back = Csr.edges g in
      let norm a = Array.to_list a |> List.sort compare in
      Alcotest.(check bool) "same multiset" true (norm edges = norm back))

let test_csr_weights_follow_edges () =
  in_pool (fun pool ->
      let edges = [| (1, 0); (0, 1); (1, 2) |] in
      let weights = [| 10; 20; 30 |] in
      let g = Csr.of_edges pool ~n:3 ~weights edges in
      let seen = ref [] in
      for u = 0 to 2 do
        Csr.iter_neighbors_w g u (fun v w -> seen := (u, v, w) :: !seen)
      done;
      let got = List.sort compare !seen in
      Alcotest.(check bool) "weights ride along" true
        (got = [ (0, 1, 20); (1, 0, 10); (1, 2, 30) ]))

let test_csr_symmetrize () =
  in_pool (fun pool ->
      let g = diamond pool in
      let sg = Csr.symmetrize pool g in
      Alcotest.(check int) "m doubles" 8 (Csr.m sg);
      let has_edge u v =
        Csr.fold_neighbors sg u ~init:false ~f:(fun acc x -> acc || x = v)
      in
      Alcotest.(check bool) "reverse present" true (has_edge 3 1 && has_edge 1 0))

let test_csr_degree_stats () =
  in_pool (fun pool ->
      let g = diamond pool in
      Alcotest.(check int) "max degree" 2 (Csr.max_degree pool g);
      Alcotest.(check (float 1e-9)) "avg degree" 1.0 (Csr.avg_degree g))

(* ---------- Generate ---------- *)

let test_generate_rmat_shape () =
  in_pool (fun pool ->
      let g = Generate.rmat pool ~scale:10 ~edge_factor:6 () in
      Alcotest.(check int) "n" 1024 (Csr.n g);
      Alcotest.(check int) "m" (6 * 1024) (Csr.m g))

let test_generate_deterministic () =
  in_pool (fun pool ->
      let g1 = Generate.rmat pool ~scale:8 ~edge_factor:4 () in
      let g2 = Generate.rmat pool ~scale:8 ~edge_factor:4 () in
      Alcotest.(check bool) "same edges" true (Csr.edges g1 = Csr.edges g2);
      let g3 = Generate.rmat pool ~scale:8 ~edge_factor:4 ~seed:99 () in
      Alcotest.(check bool) "different seed differs" false
        (Csr.edges g1 = Csr.edges g3))

let test_generate_road_grid () =
  in_pool (fun pool ->
      let g = Generate.road_grid pool ~rows:10 ~cols:10 ~weighted:true () in
      Alcotest.(check int) "n" 100 (Csr.n g);
      (* 2 * (9*10 + 9*10) directed edges after symmetrization. *)
      Alcotest.(check int) "m" 360 (Csr.m g);
      Alcotest.(check bool) "degree bounded" true (Csr.max_degree pool g <= 4);
      (* Grid is connected. *)
      Alcotest.(check int) "one component" 1 (Reference.num_components g))

let test_generate_skew () =
  in_pool (fun pool ->
      (* Power-law ("link") should be much more skewed than road. *)
      let pl = Generate.power_law pool ~scale:10 ~edge_factor:10 () in
      let road = Generate.road_grid pool ~rows:32 ~cols:32 () in
      let pl_max = Csr.max_degree pool pl and road_max = Csr.max_degree pool road in
      Alcotest.(check bool)
        (Printf.sprintf "power-law skew (%d vs %d)" pl_max road_max)
        true
        (pl_max > 8 * road_max))

let test_generate_by_name () =
  in_pool (fun pool ->
      List.iter
        (fun name ->
          let g = Generate.by_name pool ~name ~scale:8 ~weighted:true in
          Alcotest.(check bool) (name ^ " nonempty") true (Csr.n g > 0 && Csr.m g > 0))
        [ "rmat"; "link"; "road" ];
      match Generate.by_name pool ~name:"nope" ~scale:4 ~weighted:false with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "unknown name accepted")

(* ---------- Union_find ---------- *)

let test_uf_basic () =
  in_pool (fun pool ->
      let uf = Union_find.create 10 in
      Alcotest.(check int) "initial roots" 10 (Union_find.count_roots pool uf);
      Alcotest.(check bool) "union fresh" true (Union_find.union uf 1 2);
      Alcotest.(check bool) "union dup" false (Union_find.union uf 2 1);
      Alcotest.(check bool) "same" true (Union_find.same uf 1 2);
      Alcotest.(check bool) "not same" false (Union_find.same uf 1 3);
      Alcotest.(check int) "roots after" 9 (Union_find.count_roots pool uf))

let test_uf_chain_and_canonical () =
  in_pool (fun pool ->
      let uf = Union_find.create 100 in
      for i = 0 to 98 do
        ignore (Union_find.union uf i (i + 1))
      done;
      Alcotest.(check int) "single set" 1 (Union_find.count_roots pool uf);
      (* Min-index linking makes 0 the canonical root. *)
      Alcotest.(check int) "canonical root" 0 (Union_find.find uf 99);
      let comp = Union_find.components pool uf in
      Alcotest.(check bool) "all zero" true (Array.for_all (fun r -> r = 0) comp))

let test_uf_concurrent_unions () =
  (* Racing unions over a ring: exactly n-1 must succeed. *)
  let n = 20_000 in
  let uf = Union_find.create n in
  let successes = Atomic.make 0 in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rec go i =
              if i < n - 1 then begin
                if Union_find.union uf i (i + 1) then Atomic.incr successes;
                go (i + 4)
              end
            in
            go d))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "exactly n-1 successful unions" (n - 1)
    (Atomic.get successes);
  with_pool 2 (fun pool ->
      Alcotest.(check int) "one component" 1 (Union_find.count_roots pool uf))

let prop_uf_matches_reference =
  QCheck.Test.make ~name:"union-find partitions like a reference" ~count:30
    QCheck.(list (pair (int_bound 49) (int_bound 49)))
    (fun pairs ->
      let uf = Union_find.create 50 in
      let find_ref, union_ref =
        let parent = Array.init 50 Fun.id in
        let rec find i = if parent.(i) = i then i else find parent.(i) in
        (find, fun a b ->
          let ra = find a and rb = find b in
          if ra <> rb then parent.(max ra rb) <- min ra rb)
      in
      List.iter
        (fun (a, b) ->
          ignore (Union_find.union uf a b);
          union_ref a b)
        pairs;
      let ok = ref true in
      for i = 0 to 49 do
        for j = i + 1 to 49 do
          if Union_find.same uf i j <> (find_ref i = find_ref j) then ok := false
        done
      done;
      !ok)

(* Racing links over a ring at P = 4: n - 1 of the n edges link, and no
   root is returned twice, since a linked root never becomes a root again. *)
let test_uf_link_roots_once () =
  with_pool 4 (fun pool ->
      Pool.run pool (fun () ->
          let n = 20_000 in
          let uf = Union_find.create n in
          let linked = Array.make n (-1) in
          Pool.parallel_for ~grain:64 ~start:0 ~finish:n
            ~body:(fun i -> linked.(i) <- Union_find.link uf i ((i + 1) mod n))
            pool;
          let roots = List.filter (fun r -> r >= 0) (Array.to_list linked) in
          Alcotest.(check int) "n - 1 links" (n - 1) (List.length roots);
          Alcotest.(check int) "distinct roots" (n - 1)
            (List.length (List.sort_uniq Int.compare roots));
          Alcotest.(check int) "one component" 1 (Union_find.count_roots pool uf)))

(* ---------- Spanning forest ---------- *)

(* The tuple-based sequential forest the benchmark used before it walked
   the CSR directly: an oracle for the forest's size. *)
let tuple_spanning_forest_seq g =
  let edges = Csr.edges g in
  let parent = Array.init (Csr.n g) Fun.id in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- parent.(parent.(i));
      find parent.(i)
    end
  in
  let out = ref [] in
  Array.iteri
    (fun e (u, v) ->
      let ru = find u and rv = find v in
      if ru <> rv then begin
        parent.(max ru rv) <- min ru rv;
        out := e :: !out
      end)
    edges;
  Array.of_list (List.rev !out)

(* [g] with a self-loop on every seventh vertex and three isolated vertices
   appended. *)
let with_loops_and_isolated pool g =
  let n = Csr.n g in
  let loops = Array.init ((n + 6) / 7) (fun i -> (7 * i, 7 * i)) in
  Csr.of_edges pool ~n:(n + 3) (Array.append (Csr.edges g) loops)

let sf_inputs pool =
  List.concat_map
    (fun scale ->
      List.map
        (fun name ->
          let g = Generate.by_name pool ~name ~scale ~weighted:false in
          let g = if name = "road" then g else Csr.symmetrize pool g in
          (Printf.sprintf "%s scale %d" name scale, with_loops_and_isolated pool g))
        [ "road"; "link"; "rmat" ])
    [ 6; 10 ]

let test_sf_workers workers () =
  with_pool workers (fun pool ->
      Pool.run pool (fun () ->
          List.iter
            (fun (name, g) ->
              let forest = Spanning_forest.spanning_forest pool g in
              Alcotest.(check int) (name ^ ": n - components edges")
                (Csr.n g - Reference.num_components g)
                (Array.length forest);
              Alcotest.(check int) (name ^ ": size of the tuple-based forest")
                (Array.length (tuple_spanning_forest_seq g))
                (Array.length forest);
              (* Acyclic over CSR edge ids: every edge joins two components
                 of a fresh replay. *)
              let edges = Csr.edges g in
              let uf = Union_find.create (Csr.n g) in
              Array.iter
                (fun e ->
                  let u, v = edges.(e) in
                  if not (Union_find.union uf u v) then
                    Alcotest.failf "%s: edge %d closes a cycle" name e)
                forest)
            (sf_inputs pool)))

(* At T1 the forest costs no per-edge allocation: the CSR is read in place,
   and only n-length arrays are made, which go straight to the major heap. *)
let test_sf_t1_allocation () =
  with_pool 1 (fun pool ->
      Pool.run pool (fun () ->
          let g =
            Csr.symmetrize pool (Generate.by_name pool ~name:"link" ~scale:12 ~weighted:false)
          in
          ignore (Spanning_forest.spanning_forest pool g);
          let w0 = Gc.minor_words () in
          ignore (Spanning_forest.spanning_forest pool g);
          let per_edge = (Gc.minor_words () -. w0) /. float_of_int (Csr.m g) in
          Alcotest.(check bool)
            (Printf.sprintf "%.4f minor words per edge < 0.05" per_edge)
            true (per_edge < 0.05)))

(* ---------- Reference ---------- *)

let test_reference_bfs () =
  in_pool (fun pool ->
      let g = diamond pool in
      let d = Reference.bfs_distances g ~src:0 in
      Alcotest.(check bool) "distances" true (d = [| 0; 1; 1; 2 |]);
      let d3 = Reference.bfs_distances g ~src:3 in
      Alcotest.(check bool) "unreachable" true
        (d3 = [| max_int; max_int; max_int; 0 |]))

let test_reference_dijkstra () =
  in_pool (fun pool ->
      (* 0 -2-> 1 -2-> 3 and 0 -1-> 2 -4-> 3: shortest to 3 is 4 via 1. *)
      let g =
        Csr.of_edges pool ~n:4 ~weights:[| 2; 1; 2; 4 |]
          [| (0, 1); (0, 2); (1, 3); (2, 3) |]
      in
      let d = Reference.dijkstra g ~src:0 in
      Alcotest.(check bool) "weighted distances" true (d = [| 0; 2; 1; 4 |]))

let test_reference_dijkstra_matches_bfs_on_unit_weights () =
  in_pool (fun pool ->
      let g = Generate.rmat pool ~scale:8 ~edge_factor:4 () in
      let bfs = Reference.bfs_distances g ~src:0 in
      let dij = Reference.dijkstra g ~src:0 in
      Alcotest.(check bool) "agree" true (bfs = dij))

(* The closure-based references that [Reference] replaced, kept as oracles:
   a [Queue] FIFO, and a Dijkstra over the allocating [pop_min], each
   visiting edges through [Csr.iter_neighbors(_w)]. *)
let oracle_bfs g ~src =
  let dist = Array.make (Csr.n g) max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Csr.iter_neighbors g u (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
  done;
  dist

let oracle_dijkstra g ~src =
  let dist = Array.make (Csr.n g) max_int in
  let heap = Rpb_mq.Binary_heap.create () in
  dist.(src) <- 0;
  Rpb_mq.Binary_heap.push heap ~pri:0 src;
  let rec drain () =
    match Rpb_mq.Binary_heap.pop_min heap with
    | None -> ()
    | Some (d, u) ->
      if d = dist.(u) then
        Csr.iter_neighbors_w g u (fun v w ->
            let nd = d + w in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              Rpb_mq.Binary_heap.push heap ~pri:nd v
            end);
      drain ()
  in
  drain ();
  dist

(* [g] with [k] isolated vertices appended, so that every input has
   unreachable vertices. *)
let with_isolated (g : Csr.t) k =
  let offsets =
    Array.init (g.n + k + 1) (fun i -> if i <= g.n then g.offsets.(i) else g.m)
  in
  Csr.make ~offsets ~targets:g.targets ?weights:g.weights ()

let test_reference_matches_oracles () =
  in_pool (fun pool ->
      List.iter
        (fun (name, scale, weighted) ->
          let g =
            with_isolated (Generate.by_name pool ~name ~scale ~weighted) 3
          in
          let label what =
            Printf.sprintf "%s %s scale %d%s" what name scale
              (if weighted then " weighted" else "")
          in
          List.iter
            (fun src ->
              let bfs = Reference.bfs_distances g ~src in
              Alcotest.(check (array int)) (label "bfs") (oracle_bfs g ~src) bfs;
              Alcotest.(check bool) (label "unreachable in bfs") true
                (Array.mem max_int bfs);
              Alcotest.(check (array int)) (label "dijkstra")
                (oracle_dijkstra g ~src) (Reference.dijkstra g ~src))
            [ 0; Csr.n g / 3 ])
        (List.concat_map
           (fun name ->
             List.concat_map
               (fun scale -> [ (name, scale, false); (name, scale, true) ])
               [ 8; 12 ])
           [ "road"; "link"; "rmat" ]))

let test_reference_components () =
  in_pool (fun pool ->
      (* Two triangles. *)
      let g =
        Csr.of_edges pool ~n:6 [| (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) |]
      in
      Alcotest.(check int) "two components" 2 (Reference.num_components g);
      let comp = Reference.connected_components g in
      Alcotest.(check bool) "labels" true
        (comp.(0) = comp.(1) && comp.(1) = comp.(2) && comp.(3) = comp.(4)
         && comp.(0) <> comp.(3)))

let test_reference_mis_checker () =
  in_pool (fun pool ->
      let g = Csr.symmetrize pool (diamond pool) in
      Alcotest.(check bool) "valid MIS" true
        (Reference.is_maximal_independent_set g [| true; false; false; true |]);
      Alcotest.(check bool) "not independent" false
        (Reference.is_independent_set g [| true; true; false; false |]);
      Alcotest.(check bool) "not maximal" false
        (Reference.is_maximal_independent_set g [| true; false; false; false |]))

let test_reference_matching_checker () =
  in_pool (fun pool ->
      let g = Csr.symmetrize pool (diamond pool) in
      let edges = [| (0, 1); (0, 2); (1, 3); (2, 3) |] in
      Alcotest.(check bool) "valid MM" true
        (Reference.is_maximal_matching g ~edges ~selected:[| true; false; false; true |]);
      Alcotest.(check bool) "shared endpoint" false
        (Reference.is_matching g ~edges ~selected:[| true; true; false; false |]);
      Alcotest.(check bool) "not maximal" false
        (Reference.is_maximal_matching g ~edges
           ~selected:[| true; false; false; false |]))

let test_reference_msf_weight () =
  in_pool (fun pool ->
      (* Triangle with weights 1, 2, 3: MSF weight = 3 (pick 1 and 2). *)
      let g =
        Csr.of_edges pool ~n:3 ~weights:[| 1; 2; 3 |] [| (0, 1); (1, 2); (0, 2) |]
      in
      Alcotest.(check int) "kruskal" 3 (Reference.spanning_forest_weight g))

let () =
  Alcotest.run "rpb_graph"
    [
      ( "csr",
        [
          Alcotest.test_case "of_edges" `Quick test_csr_of_edges;
          Alcotest.test_case "make validates" `Quick test_csr_make_validates;
          Alcotest.test_case "edges roundtrip" `Quick test_csr_edges_roundtrip;
          Alcotest.test_case "weights follow" `Quick test_csr_weights_follow_edges;
          Alcotest.test_case "symmetrize" `Quick test_csr_symmetrize;
          Alcotest.test_case "degree stats" `Quick test_csr_degree_stats;
        ] );
      ( "generate",
        [
          Alcotest.test_case "rmat shape" `Quick test_generate_rmat_shape;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "road grid" `Quick test_generate_road_grid;
          Alcotest.test_case "skew" `Quick test_generate_skew;
          Alcotest.test_case "by_name" `Quick test_generate_by_name;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          Alcotest.test_case "chain/canonical" `Quick test_uf_chain_and_canonical;
          Alcotest.test_case "concurrent unions" `Quick test_uf_concurrent_unions;
          QCheck_alcotest.to_alcotest prop_uf_matches_reference;
          Alcotest.test_case "link returns each root at most once" `Quick
            test_uf_link_roots_once;
        ] );
      ( "forest",
        List.map
          (fun w ->
            Alcotest.test_case (Printf.sprintf "spanning forest P=%d" w) `Quick
              (test_sf_workers w))
          [ 1; 2; 4 ]
        @ [ Alcotest.test_case "T1 minor words per edge" `Quick test_sf_t1_allocation ] );
      ( "reference",
        [
          Alcotest.test_case "bfs" `Quick test_reference_bfs;
          Alcotest.test_case "dijkstra" `Quick test_reference_dijkstra;
          Alcotest.test_case "dijkstra = bfs unit" `Quick
            test_reference_dijkstra_matches_bfs_on_unit_weights;
          Alcotest.test_case "bfs/dijkstra = closure-based oracles" `Quick
            test_reference_matches_oracles;
          Alcotest.test_case "components" `Quick test_reference_components;
          Alcotest.test_case "MIS checker" `Quick test_reference_mis_checker;
          Alcotest.test_case "matching checker" `Quick test_reference_matching_checker;
          Alcotest.test_case "msf weight" `Quick test_reference_msf_weight;
        ] );
    ]
