(* Tests for geometry: predicates, mesh, Delaunay triangulation, refinement. *)

open Rpb_geom
open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

let pt = Point.make

(* ---------- Point / predicates ---------- *)

let test_orient () =
  Alcotest.(check bool) "ccw" true (Point.ccw (pt 0. 0.) (pt 1. 0.) (pt 0. 1.));
  Alcotest.(check bool) "cw" false (Point.ccw (pt 0. 0.) (pt 0. 1.) (pt 1. 0.));
  Alcotest.(check (float 1e-12)) "collinear" 0.0
    (Point.orient2d (pt 0. 0.) (pt 1. 1.) (pt 2. 2.))

let test_in_circle () =
  let a = pt 0. 0. and b = pt 2. 0. and c = pt 0. 2. in
  Alcotest.(check bool) "center inside" true (Point.in_circle a b c (pt 0.7 0.7));
  Alcotest.(check bool) "far outside" false (Point.in_circle a b c (pt 10. 10.));
  Alcotest.(check bool) "vertex on circle" false (Point.in_circle a b c a)

let test_circumcenter () =
  (match Point.circumcenter (pt 0. 0.) (pt 2. 0.) (pt 1. 1.) with
   | Some o ->
     Alcotest.(check (float 1e-9)) "cx" 1.0 o.Point.x;
     Alcotest.(check (float 1e-9)) "cy" 0.0 o.Point.y
   | None -> Alcotest.fail "circumcenter of proper triangle");
  (match Point.circumcenter (pt 0. 0.) (pt 1. 1.) (pt 2. 2.) with
   | None -> ()
   | Some _ -> Alcotest.fail "degenerate must be None")

let test_angles_area () =
  (* Equilateral: all angles 60. *)
  let h = sqrt 3.0 /. 2.0 in
  Alcotest.(check (float 1e-6)) "equilateral" 60.0
    (Point.min_angle (pt 0. 0.) (pt 1. 0.) (pt 0.5 h));
  (* Right isoceles: min angle 45. *)
  Alcotest.(check (float 1e-6)) "right isoceles" 45.0
    (Point.min_angle (pt 0. 0.) (pt 1. 0.) (pt 0. 1.));
  Alcotest.(check (float 1e-9)) "area" 0.5
    (Point.triangle_area (pt 0. 0.) (pt 1. 0.) (pt 0. 1.));
  Alcotest.(check (float 1e-9)) "degenerate angle" 0.0
    (Point.min_angle (pt 0. 0.) (pt 0. 0.) (pt 1. 0.))

let test_point_in_triangle () =
  let a = pt 0. 0. and b = pt 4. 0. and c = pt 0. 4. in
  Alcotest.(check bool) "inside" true (Point.point_in_triangle a b c (pt 1. 1.));
  Alcotest.(check bool) "outside" false (Point.point_in_triangle a b c (pt 3. 3.));
  Alcotest.(check bool) "on edge" true (Point.point_in_triangle a b c (pt 2. 0.));
  Alcotest.(check bool) "on vertex" true (Point.point_in_triangle a b c a)

(* ---------- Pointgen ---------- *)

let test_pointgen () =
  let u = Pointgen.uniform_square ~n:500 ~seed:1 in
  Alcotest.(check int) "count" 500 (Array.length u);
  Array.iter
    (fun (p : Point.t) ->
      Alcotest.(check bool) "in unit square" true
        (p.Point.x >= 0.0 && p.Point.x < 1.0 && p.Point.y >= 0.0 && p.Point.y < 1.0))
    u;
  let k = Pointgen.kuzmin ~n:500 ~seed:2 in
  let near = Array.length (Array.of_list (List.filter (fun (p : Point.t) -> Point.dist2 p (pt 0. 0.) < 1.0) (Array.to_list k))) in
  Alcotest.(check bool) "kuzmin concentrates centrally" true (near > 100);
  Alcotest.(check bool) "deterministic" true (Pointgen.kuzmin ~n:500 ~seed:2 = k)

(* ---------- Mesh basics ---------- *)

let test_mesh_create_and_locate () =
  let points = [| pt 0. 0.; pt 1. 0.; pt 0. 1. |] in
  let mesh = Mesh.create points in
  Alcotest.(check int) "vertices" 6 (Mesh.num_vertices mesh);
  Alcotest.(check bool) "valid" true (Mesh.validate mesh = Ok ());
  (* Only the super triangle exists; any point locates into it. *)
  let t0 = Mesh.locate mesh (pt 0.5 0.5) in
  Alcotest.(check bool) "located" true (Mesh.is_alive mesh t0)

let test_mesh_single_insert () =
  let mesh = Mesh.create [||] in
  (match Mesh.insert mesh (pt 0.5 0.5) with
   | Some _ -> ()
   | None -> Alcotest.fail "insert failed");
  Alcotest.(check bool) "valid after insert" true (Mesh.validate mesh = Ok ());
  (* One interior point in the super triangle: 3 live triangles. *)
  in_pool (fun pool ->
      Alcotest.(check int) "live count" 3 (Array.length (Mesh.live_triangles pool mesh)))

let test_mesh_duplicate_insert () =
  let mesh = Mesh.create [||] in
  ignore (Mesh.insert mesh (pt 0.5 0.5));
  Alcotest.(check bool) "duplicate rejected" true
    (Mesh.insert mesh (pt 0.5 0.5) = None)

(* ---------- Delaunay ---------- *)

let test_delaunay_square () =
  in_pool (fun pool ->
      let points = [| pt 0. 0.; pt 1. 0.; pt 1. 1.; pt 0. 1. |] in
      let mesh = Delaunay.triangulate points in
      Alcotest.(check bool) "valid" true (Mesh.validate mesh = Ok ());
      Alcotest.(check int) "two real triangles" 2 (Mesh.num_real_triangles pool mesh);
      Alcotest.(check bool) "delaunay" true (Delaunay.is_delaunay pool mesh))

let test_delaunay_uniform () =
  in_pool (fun pool ->
      let points = Pointgen.uniform_square ~n:300 ~seed:3 in
      let mesh = Delaunay.triangulate points in
      Alcotest.(check bool) "valid" true
        (match Mesh.validate mesh with
         | Ok () -> true
         | Error e -> Alcotest.failf "invalid: %s" e);
      Alcotest.(check bool) "delaunay" true (Delaunay.is_delaunay pool mesh);
      (* Euler: for n points in general position inside a bounding triangle,
         real triangles ~ 2n; just sanity-check the magnitude. *)
      let nt = Mesh.num_real_triangles pool mesh in
      Alcotest.(check bool)
        (Printf.sprintf "triangle count plausible (%d)" nt)
        true
        (nt > 400 && nt < 700))

let test_delaunay_kuzmin () =
  in_pool (fun pool ->
      let points = Pointgen.kuzmin ~n:300 ~seed:4 in
      let mesh = Delaunay.triangulate points in
      Alcotest.(check bool) "valid" true (Mesh.validate mesh = Ok ());
      Alcotest.(check bool) "delaunay" true (Delaunay.is_delaunay pool mesh))

let test_delaunay_collinearish () =
  in_pool (fun pool ->
      (* Jittered grid contains many near-collinear quadruples. *)
      let points = Pointgen.grid_jittered ~side:12 ~seed:5 in
      let mesh = Delaunay.triangulate points in
      Alcotest.(check bool) "valid" true (Mesh.validate mesh = Ok ());
      Alcotest.(check bool) "delaunay" true (Delaunay.is_delaunay pool mesh))

(* ---------- Refinement ---------- *)

let refine_test mode =
  in_pool (fun pool ->
      let points = Pointgen.kuzmin ~n:150 ~seed:6 in
      let mesh = Delaunay.triangulate points in
      let before_bad = Refine.count_bad pool mesh ~min_angle:26.0 in
      Alcotest.(check bool) "input has skinny triangles" true (before_bad > 0);
      let stats = Refine.refine ~min_angle:26.0 ~mode pool mesh in
      Alcotest.(check bool) "valid after refine" true
        (match Mesh.validate mesh with
         | Ok () -> true
         | Error e -> Alcotest.failf "invalid: %s" e);
      Alcotest.(check bool) "inserted some" true (stats.Refine.inserted > 0);
      (* Refinement must fix every skinny triangle it did not explicitly
         give up on. *)
      Alcotest.(check int) "no bad real triangles remain (mod skipped)" 0
        (max 0 (stats.Refine.remaining_bad - stats.Refine.skipped));
      stats)

let test_refine_sequential () = ignore (refine_test Refine.Sequential)
let test_refine_reserving () = ignore (refine_test Refine.Reserving)

let test_refine_modes_equivalent_quality () =
  in_pool (fun pool ->
      let points = Pointgen.uniform_square ~n:100 ~seed:7 in
      let m1 = Delaunay.triangulate points in
      let m2 = Delaunay.triangulate points in
      let s1 = Refine.refine ~min_angle:25.0 ~mode:Refine.Sequential pool m1 in
      let s2 = Refine.refine ~min_angle:25.0 ~mode:Refine.Reserving pool m2 in
      (* Not bit-identical (different insertion orders), but both must reach
         the quality target. *)
      List.iter
        (fun (name, s) ->
          Alcotest.(check bool) (name ^ " quality reached") true
            (s.Refine.remaining_bad <= s.Refine.skipped))
        [ ("sequential", s1); ("reserving", s2) ])

let test_refine_no_bad_input_is_noop () =
  in_pool (fun pool ->
      (* A single equilateral triangle has no skinny triangles. *)
      let h = sqrt 3.0 /. 2.0 in
      let mesh = Delaunay.triangulate [| pt 0. 0.; pt 1. 0.; pt 0.5 h |] in
      let bad0 = Refine.count_bad pool mesh ~min_angle:26.0 in
      Alcotest.(check int) "no bad triangles" 0 bad0;
      let stats = Refine.refine ~min_angle:26.0 pool mesh in
      Alcotest.(check int) "nothing inserted" 0 stats.Refine.inserted;
      Alcotest.(check int) "one round" 1 stats.Refine.rounds)

(* The worklist changes no Sequential output: these are the stats the
   full-rescan refinement produced on the dr benchmark's input. *)
let test_refine_sequential_baseline () =
  in_pool (fun pool ->
      let mesh = Delaunay.triangulate (Pointgen.kuzmin ~n:200 ~seed:115) in
      let s = Refine.refine ~min_angle:26.0 ~mode:Refine.Sequential pool mesh in
      Alcotest.(check (list int)) "rounds, inserted, skipped, remaining, real"
        [ 14; 391; 41; 26; 1165 ]
        [ s.Refine.rounds; s.inserted; s.skipped; s.remaining_bad;
          s.final_real_triangles ])

(* A Reserving step with fewer live entries than the grain runs plan,
   reserve and commit inline.  On the dr benchmark's 200-point input every
   step is below the grain (the largest has 37 live entries), so at P = 2
   the refinement forks only in its final quality queries: it adds no
   Pool.Stats task beyond what those queries take on the refined mesh. *)
let test_refine_inline_steps_fork_nothing () =
  with_pool 2 (fun pool ->
      let counting_tasks f =
        let s0 = Pool.Stats.capture pool in
        let x = Pool.run pool f in
        let d = Pool.Stats.diff ~before:s0 ~after:(Pool.Stats.capture pool) in
        (x, Pool.Stats.tasks_executed d)
      in
      let mesh = Delaunay.triangulate (Pointgen.kuzmin ~n:200 ~seed:115) in
      let stats, refine_tasks =
        counting_tasks (fun () -> Refine.refine ~min_angle:26.0 pool mesh)
      in
      let (), query_tasks =
        counting_tasks (fun () ->
            ignore (Refine.count_bad pool mesh ~min_angle:26.0);
            ignore (Mesh.min_live_angle pool mesh);
            ignore (Mesh.num_real_triangles pool mesh))
      in
      Alcotest.(check bool) "refined" true (stats.Refine.inserted > 0);
      Alcotest.(check bool) "the queries fork" true (query_tasks > 0);
      Alcotest.(check int) "tasks during the steps" 0 (refine_tasks - query_tasks))

(* Larger inputs must empty the worklist before the default cap of 64
   rounds stops refinement; a capped run can still pass
   [remaining_bad <= skipped] by chance. *)
let test_refine_before_cap ~n ~seed ~mode ~workers () =
  with_pool workers (fun pool ->
      Pool.run pool (fun () ->
          let mesh = Delaunay.triangulate (Pointgen.kuzmin ~n ~seed) in
          let s = Refine.refine ~min_angle:26.0 ~mode pool mesh in
          Alcotest.(check bool)
            (Printf.sprintf "finished before the cap (%d rounds)" s.Refine.rounds)
            true (s.Refine.rounds < 64);
          Alcotest.(check bool) "remaining_bad <= skipped" true
            (s.Refine.remaining_bad <= s.Refine.skipped);
          match Mesh.validate mesh with
          | Ok () -> ()
          | Error e -> Alcotest.failf "invalid: %s" e))

let refine_cap_cases =
  List.concat_map
    (fun (n, seed) ->
      List.concat_map
        (fun (mname, mode) ->
          List.map
            (fun workers ->
              Alcotest.test_case
                (Printf.sprintf "before cap n=%d %s P=%d" n mname workers)
                `Quick
                (test_refine_before_cap ~n ~seed ~mode ~workers))
            [ 1; 2 ])
        [ ("sequential", Refine.Sequential); ("reserving", Refine.Reserving) ])
    [ (1600, 115); (3200, 3) ]

let () =
  Alcotest.run "rpb_geom"
    [
      ( "point",
        [
          Alcotest.test_case "orient" `Quick test_orient;
          Alcotest.test_case "in_circle" `Quick test_in_circle;
          Alcotest.test_case "circumcenter" `Quick test_circumcenter;
          Alcotest.test_case "angles/area" `Quick test_angles_area;
          Alcotest.test_case "point in triangle" `Quick test_point_in_triangle;
        ] );
      ("pointgen", [ Alcotest.test_case "generators" `Quick test_pointgen ]);
      ( "mesh",
        [
          Alcotest.test_case "create/locate" `Quick test_mesh_create_and_locate;
          Alcotest.test_case "single insert" `Quick test_mesh_single_insert;
          Alcotest.test_case "duplicate insert" `Quick test_mesh_duplicate_insert;
        ] );
      ( "delaunay",
        [
          Alcotest.test_case "square" `Quick test_delaunay_square;
          Alcotest.test_case "uniform 300" `Quick test_delaunay_uniform;
          Alcotest.test_case "kuzmin 300" `Quick test_delaunay_kuzmin;
          Alcotest.test_case "near-collinear" `Quick test_delaunay_collinearish;
        ] );
      ( "refine",
        [
          Alcotest.test_case "sequential" `Quick test_refine_sequential;
          Alcotest.test_case "reserving" `Quick test_refine_reserving;
          Alcotest.test_case "modes reach quality" `Quick
            test_refine_modes_equivalent_quality;
          Alcotest.test_case "clean input noop" `Quick test_refine_no_bad_input_is_noop;
          Alcotest.test_case "sequential baseline pinned" `Quick
            test_refine_sequential_baseline;
          Alcotest.test_case "steps below the grain fork nothing" `Quick
            test_refine_inline_steps_fork_nothing;
        ]
        @ refine_cap_cases );
    ]
