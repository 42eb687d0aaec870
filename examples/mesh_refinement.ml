(* Mesh refinement: Delaunay-triangulate a Kuzmin point set (skinny triangles
   galore) and refine it with the reservation-based parallel algorithm.

   Run with:  dune exec examples/mesh_refinement.exe *)

open Rpb_geom

let () =
  let pool = Rpb_pool.Pool.create ~num_workers:4 () in
  Fun.protect ~finally:(fun () -> Rpb_pool.Pool.shutdown pool) @@ fun () ->
  Rpb_pool.Pool.run pool @@ fun () ->
  let n = 800 in
  let points = Pointgen.kuzmin ~n ~seed:77 in
  Printf.printf "triangulating %d Kuzmin-distributed points...\n" n;
  let (mesh, dt) = Rpb_prim.Timing.time (fun () -> Delaunay.triangulate points) in
  Printf.printf "triangulation: %d real triangles in %.3f s (Delaunay: %b)\n"
    (Mesh.num_real_triangles pool mesh)
    dt
    (Delaunay.is_delaunay pool mesh);
  let min_angle = 26.0 in
  Printf.printf "min angle before refinement: %.2f deg (%d skinny triangles)\n"
    (Mesh.min_live_angle pool mesh)
    (Refine.count_bad pool mesh ~min_angle);
  let (stats, dt) =
    Rpb_prim.Timing.time (fun () ->
        Refine.refine ~min_angle ~mode:Refine.Reserving pool mesh)
  in
  Printf.printf
    "refined in %.3f s: %d rounds, %d inserted, %d skipped, %d bad left\n" dt
    stats.Refine.rounds stats.Refine.inserted stats.Refine.skipped
    stats.Refine.remaining_bad;
  Printf.printf "final mesh: %d real triangles, min angle %.2f deg, valid: %b\n"
    stats.Refine.final_real_triangles stats.Refine.final_min_angle
    (Mesh.validate mesh = Ok ());
