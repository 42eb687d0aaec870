(** Delaunay refinement — the paper's [dr] benchmark.

    Splits skinny triangles (smallest angle below a threshold) by inserting
    their circumcenters, in generations, until the mesh is clean or a
    generation cap is reached.  A generation processes the bad triangles
    pending when it starts, in ascending slot order; the next generation's
    list is the survivors of this one (still alive and not given up) plus the
    bad triangles it created.  Badness is fixed when a triangle is created,
    so this worklist is exactly what a rescan of every slot would find.

    Two execution modes reproduce the paper's fear spectrum for this
    arbitrary-read-write workload:

    - [Sequential]: one insertion at a time, in list order (the baseline);
    - [Reserving]: deterministic reservations over the generation's list, as
      PBBS's [speculative_for] runs them.  Each step takes a prefix of the
      pending triangles, plans their insertion cavities in parallel
      (read-only), and lets them race to reserve the triangles they would
      mutate via atomic priority-writes (the lowest list position wins —
      the AW pattern); winners with fully-owned cavities insert in parallel,
      losers go to the front of the next step.  The prefix halves when more
      than a fifth of a step's triangles lost (never below [n/64 + 1] or the
      number of losers, for a list of [n]) and doubles, up to [n], when
      fewer than a tenth did.  A step with fewer than 64 live entries runs
      its plan, reserve and commit loops inline on the calling worker,
      forking nothing: below that size the fork/joins cost more than the
      second worker saves. *)

open Rpb_pool

type mode = Sequential | Reserving

type stats = {
  rounds : int;
  (** generations, counted alike in both modes; a run that empties its
      worklist also counts the generation that finds it empty *)
  inserted : int;       (** circumcenters successfully inserted *)
  skipped : int;        (** skinny triangles given up on (outside domain) *)
  remaining_bad : int;  (** skinny triangles left when refinement stopped *)
  final_min_angle : float;
  final_real_triangles : int;
}

val is_bad : Mesh.t -> min_angle:float -> int -> bool
(** Real, skinny, and large enough to be worth splitting. *)

val count_bad : Pool.t -> Mesh.t -> min_angle:float -> int

val refine :
  ?min_angle:float -> ?max_rounds:int -> ?mode:mode ->
  Pool.t -> Mesh.t -> stats
(** Default [min_angle] 26 degrees, [max_rounds] 64 (a cap on
    [stats.rounds]), [mode] Reserving. *)
