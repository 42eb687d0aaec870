open Rpb_pool
module Atomic_array = Rpb_prim.Atomic_array

type mode = Sequential | Reserving

type stats = {
  rounds : int;
  inserted : int;
  skipped : int;
  remaining_bad : int;
  final_min_angle : float;
  final_real_triangles : int;
}

(* Triangles smaller than this squared circumradius are left alone: a
   termination guard against splitting ever-finer geometry. *)
let min_split_radius2 = 1e-12

let is_bad mesh ~min_angle i =
  Mesh.is_real mesh i
  && begin
    let a, b, c = Mesh.tri_points mesh i in
    Point.min_angle a b c < min_angle
    && Point.circumradius2 a b c > min_split_radius2
  end

let count_bad pool mesh ~min_angle =
  Pool.parallel_for_reduce ~start:0 ~finish:(Mesh.num_triangle_slots mesh)
    ~body:(fun i -> if is_bad mesh ~min_angle i then 1 else 0)
    ~combine:( + ) ~init:0 pool

(* The prospective insertion for a skinny triangle: its circumcenter's
   cavity, provided the center lands inside the real (non-scaffolding) part
   of the mesh. *)
let plan_insertion mesh i =
  let a, b, c = Mesh.tri_points mesh i in
  match Point.circumcenter a b c with
  | None -> None
  | Some center ->
    (match Mesh.locate mesh center with
     | exception Not_found -> None
     | loc when not (Mesh.is_real mesh loc) -> None
     | loc -> Mesh.cavity_at mesh ~start:loc center)

let reserved_set (cavity : Mesh.cavity) =
  let outside =
    List.filter_map
      (fun (_, _, nb) -> if nb >= 0 then Some nb else None)
      cavity.Mesh.boundary
  in
  List.sort_uniq Int.compare (cavity.Mesh.old_triangles @ outside)

let finish pool mesh ~min_angle ~rounds ~inserted ~skipped =
  {
    rounds;
    inserted;
    skipped;
    remaining_bad = count_bad pool mesh ~min_angle;
    final_min_angle = Mesh.min_live_angle pool mesh;
    final_real_triangles = Mesh.num_real_triangles pool mesh;
  }

(* The bad triangles a generation processes, ascending.  A slot's vertices
   never change, so a triangle is bad from its creation until it dies.  The
   next generation's list is therefore this one's entries still alive and
   not given up, followed by the bad triangles the generation created:
   exactly what a rescan of every slot would find, in the same order.  An
   entry given up on is overwritten with -1. *)
type worklist = { mutable items : int array; mutable len : int }

let push w i =
  if w.len = Array.length w.items then begin
    let items = Array.make (max 64 (2 * w.len)) 0 in
    Array.blit w.items 0 items 0 w.len;
    w.items <- items
  end;
  w.items.(w.len) <- i;
  w.len <- w.len + 1

let push_bad w mesh ~min_angle ~from =
  for i = from to Mesh.num_triangle_slots mesh - 1 do
    if is_bad mesh ~min_angle i then push w i
  done

let next_generation w mesh ~min_angle ~from =
  let kept = ref 0 in
  for r = 0 to w.len - 1 do
    let i = w.items.(r) in
    if i >= 0 && Mesh.is_alive mesh i then begin
      w.items.(!kept) <- i;
      incr kept
    end
  done;
  w.len <- !kept;
  push_bad w mesh ~min_angle ~from

(* One insertion at a time, in list order. *)
let sequential_generation mesh w ~inserted ~skipped =
  for r = 0 to w.len - 1 do
    let i = w.items.(r) in
    (* The triangle may have died earlier this generation. *)
    if Mesh.is_alive mesh i then
      match plan_insertion mesh i with
      | None ->
        w.items.(r) <- -1;
        incr skipped
      | Some cavity ->
        Mesh.ensure_capacity mesh ~vertices:1
          ~triangles:(List.length cavity.Mesh.boundary);
        let v = Mesh.add_point mesh cavity.Mesh.center in
        ignore (Mesh.apply_insert mesh ~vertex:v cavity);
        incr inserted
  done

type plan = Give_up | Insert of Mesh.cavity * int list

(* Live entries below which a step is one leaf: plan, reserve and commit
   run inline, since forking them costs more than the cavities they would
   spread (EXPERIMENTS.md § Fig. 4 has the sweep that chose 64). *)
let inline_grain = 64

(* Deterministic reservations over the generation's list (PBBS's
   speculative_for): each step plans, reserves and commits a prefix of the
   pending entries; an entry whose reservation lost goes to the front of the
   next step.  The prefix halves when more than a fifth of a step failed and
   doubles when less than a tenth did.  [owner] holds one reservation cell
   per triangle slot, all [max_int] between steps; it grows with the mesh. *)
let reserving_generation pool mesh owner w ~inserted ~skipped =
  let n = w.len in
  (* [batch] holds worklist positions, a step's losers first; [plans] and
     [winners] are indexed by batch position. *)
  let batch = Array.make n 0 and plans = Array.make n Give_up in
  let winners = Array.make n 0 in
  let prefix = ref (max 1 (n / 4)) in
  let next = ref 0 and kept = ref 0 in
  while !kept > 0 || !next < n do
    let size = min !prefix (!kept + n - !next) in
    for j = !kept to size - 1 do
      batch.(j) <- !next + j - !kept
    done;
    next := !next + size - !kept;
    (* Entries killed by an earlier step are done. *)
    let live = ref 0 in
    for j = 0 to size - 1 do
      if Mesh.is_alive mesh w.items.(batch.(j)) then begin
        batch.(!live) <- batch.(j);
        incr live
      end
    done;
    let m = !live in
    let nt = Mesh.num_triangle_slots mesh in
    if Atomic_array.length !owner < nt then
      owner := Atomic_array.make (max nt (2 * Atomic_array.length !owner)) max_int;
    let owner = !owner in
    let grain = if m < inline_grain then Some (max 1 m) else None in
    (* Plan (read-only). *)
    Pool.parallel_for ?grain ~start:0 ~finish:m
      ~body:(fun j ->
        plans.(j) <-
          (match plan_insertion mesh w.items.(batch.(j)) with
           | None -> Give_up
           | Some cavity -> Insert (cavity, reserved_set cavity)))
      pool;
    (* Reserve: priority-writes, the lowest batch position wins — the AW
       pattern. *)
    Pool.parallel_for ?grain ~start:0 ~finish:m
      ~body:(fun j ->
        match plans.(j) with
        | Give_up -> ()
        | Insert (_, reserved) ->
          List.iter (fun ti -> ignore (Atomic_array.fetch_min owner ti j)) reserved)
      pool;
    (* Split winners from losers, freeing an entry's cells once it is
       judged: a cell it reserved is owned by it or by an earlier entry, so
       no later verdict changes. *)
    let won = ref 0 and lost = ref 0 and new_triangles = ref 0 in
    for j = 0 to m - 1 do
      let r = batch.(j) in
      match plans.(j) with
      | Give_up ->
        w.items.(r) <- -1;
        incr skipped
      | Insert (cavity, reserved) ->
        let owned = List.for_all (fun ti -> Atomic_array.get owner ti = j) reserved in
        List.iter (fun ti -> Atomic_array.set owner ti max_int) reserved;
        if owned then begin
          winners.(!won) <- j;
          incr won;
          new_triangles := !new_triangles + List.length cavity.Mesh.boundary
        end
        else begin
          batch.(!lost) <- r;
          incr lost
        end
    done;
    (* Commit: capacity first (single-threaded), then disjoint inserts. *)
    Mesh.ensure_capacity mesh ~vertices:!won ~triangles:!new_triangles;
    Pool.parallel_for ~grain:(Option.value grain ~default:1) ~start:0 ~finish:!won
      ~body:(fun k ->
        match plans.(winners.(k)) with
        | Give_up -> assert false
        | Insert (cavity, _) ->
          let v = Mesh.add_point mesh cavity.Mesh.center in
          ignore (Mesh.apply_insert mesh ~vertex:v cavity))
      pool;
    inserted := !inserted + !won;
    if 5 * !lost > size then prefix := max (!prefix / 2) (max ((n / 64) + 1) !lost)
    else if 10 * !lost < size then prefix := min (2 * !prefix) n;
    kept := !lost
  done

let refine ?(min_angle = 26.0) ?(max_rounds = 64) ?(mode = Reserving) pool mesh =
  let inserted = ref 0 and skipped = ref 0 in
  let generation =
    match mode with
    | Sequential -> sequential_generation mesh ~inserted ~skipped
    | Reserving ->
      reserving_generation pool mesh (ref (Atomic_array.make 0 max_int)) ~inserted
        ~skipped
  in
  let w = { items = [||]; len = 0 } in
  push_bad w mesh ~min_angle ~from:0;
  let rounds = ref 0 and continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    if w.len = 0 then continue_ := false
    else begin
      let nt0 = Mesh.num_triangle_slots mesh in
      generation w;
      next_generation w mesh ~min_angle ~from:nt0
    end
  done;
  finish pool mesh ~min_angle ~rounds:!rounds ~inserted:!inserted ~skipped:!skipped
