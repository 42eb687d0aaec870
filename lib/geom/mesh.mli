(** Mutable triangle mesh with adjacency — the substrate of Delaunay
    triangulation and refinement.

    Triangles are slots in flat arrays; slot [i] stores three CCW vertex ids
    and, across edge [e] (joining vertex [e] and vertex [(e+1) mod 3]), the
    neighbouring triangle id or [-1] on the hull.  Dead slots (killed by
    cavity re-triangulation) are never reused.

    Vertices [0..2] form a "super triangle" that encloses every input point;
    triangles touching it are internal scaffolding and are excluded by
    {!is_real}.

    The Bowyer–Watson step is split so the refinement benchmark can
    parallelize it: {!cavity_of} is a pure read (safe from many domains
    between mutation phases), while {!add_point}/{!apply_insert} mutate only
    the cavity, its boundary ring, and freshly allocated slots — disjoint
    across inserts whose reserved sets are disjoint. *)

type t

type cavity = {
  center : Point.t;                       (** the point being inserted *)
  old_triangles : int list;               (** triangles to kill *)
  boundary : (int * int * int) list;      (** directed edges (a, b, outside) *)
}

exception Capacity
(** Raised by allocation when the arrays are full; grow with
    {!ensure_capacity} (single-threaded) and retry. *)

val create : Point.t array -> t
(** A mesh containing only the super triangle, with the input points stored
    as vertices [3 ..] (not yet inserted into the triangulation). *)


val point : t -> int -> Point.t
(** Coordinates of a vertex id. *)

val num_vertices : t -> int

val num_triangle_slots : t -> int

val is_alive : t -> int -> bool

val is_real : t -> int -> bool
(** Alive and not touching the super triangle. *)

val tri_vertices : t -> int -> int * int * int

val tri_points : t -> int -> Point.t * Point.t * Point.t

val tri_neighbor : t -> int -> int -> int
(** [tri_neighbor t i e] for [e] in [0..2]; [-1] on the hull. *)

val live_triangles : Rpb_pool.Pool.t -> t -> int array

val real_triangles : Rpb_pool.Pool.t -> t -> int array

val num_real_triangles : Rpb_pool.Pool.t -> t -> int

val locate : t -> Point.t -> int
(** A live triangle containing the point (walking search with a linear-scan
    fallback).  Raises [Not_found] if the point is outside the super
    triangle. *)

val cavity_of : t -> Point.t -> cavity option
(** The Bowyer–Watson cavity of a prospective insertion: all triangles whose
    circumcircle contains the point, plus the directed boundary ring.  [None]
    if the point duplicates an existing vertex (within tolerance) or cannot
    be located.  Read-only. *)

val cavity_at : t -> start:int -> Point.t -> cavity option
(** {!cavity_of} for a caller that has already located the point: [start]
    is the live triangle {!locate} returned for it.  Read-only. *)

val add_point : t -> Point.t -> int
(** Store a new vertex (no triangulation change).  Thread-safe slot
    allocation; raises {!Capacity} when full. *)

val apply_insert : t -> vertex:int -> cavity -> int
(** Re-triangulate the cavity around [vertex]: kill the old triangles, fan
    new ones over the boundary, and stitch adjacency.  Returns one of the new
    triangle ids.  Thread-safe allocation; the caller guarantees exclusive
    ownership of the cavity and its boundary ring.  Raises {!Capacity}. *)

val insert : t -> Point.t -> int option
(** Sequential convenience: grow-as-needed add_point + cavity + apply.
    [None] for duplicates. *)

val ensure_capacity : t -> vertices:int -> triangles:int -> unit
(** Grow the arrays to accommodate at least this many more vertices and
    triangle slots.  NOT thread-safe: call between parallel phases. *)

val validate : t -> (unit, string) result
(** Structural invariants: live triangles CCW with distinct vertices and
    symmetric adjacency. *)

val min_live_angle : Rpb_pool.Pool.t -> t -> float
(** Smallest interior angle over real triangles, in degrees (180 when there
    are none). *)
