type t = {
  mutable px : float array;
  mutable py : float array;
  nv : int Atomic.t;
  mutable tv : int array; (* 3 vertex ids per slot *)
  mutable tn : int array; (* 3 neighbour ids per slot, -1 = hull *)
  mutable alive : Bytes.t;
  nt : int Atomic.t;
  mutable hint : int; (* a recently-created live triangle, for walks *)
}

type cavity = {
  center : Point.t;
  old_triangles : int list;
  boundary : (int * int * int) list;
}

exception Capacity

let duplicate_eps2 = 1e-24

let point t v = Point.make t.px.(v) t.py.(v)
let num_vertices t = Atomic.get t.nv
let num_triangle_slots t = Atomic.get t.nt

let is_alive t i = Bytes.unsafe_get t.alive i = '\001'

let tri_vertices t i = (t.tv.(3 * i), t.tv.((3 * i) + 1), t.tv.((3 * i) + 2))

let tri_points t i =
  let a, b, c = tri_vertices t i in
  (point t a, point t b, point t c)

let tri_neighbor t i e = t.tn.((3 * i) + e)

let is_real t i =
  is_alive t i
  && begin
    let a, b, c = tri_vertices t i in
    a > 2 && b > 2 && c > 2
  end

let create points =
  let n = Array.length points in
  (* Bounding box -> a super triangle comfortably containing every
     circumcircle that refinement will query. *)
  let minx = ref infinity and maxx = ref neg_infinity in
  let miny = ref infinity and maxy = ref neg_infinity in
  Array.iter
    (fun (p : Point.t) ->
      if p.Point.x < !minx then minx := p.Point.x;
      if p.Point.x > !maxx then maxx := p.Point.x;
      if p.Point.y < !miny then miny := p.Point.y;
      if p.Point.y > !maxy then maxy := p.Point.y)
    points;
  let minx = if !minx = infinity then 0.0 else !minx in
  let maxx = if !maxx = neg_infinity then 1.0 else !maxx in
  let miny = if !miny = infinity then 0.0 else !miny in
  let maxy = if !maxy = neg_infinity then 1.0 else !maxy in
  let cx = (minx +. maxx) /. 2.0 and cy = (miny +. maxy) /. 2.0 in
  let span = Float.max 1.0 (Float.max (maxx -. minx) (maxy -. miny)) in
  let r = 1e4 *. span in
  let cap_v = n + 3 + 16 in
  let cap_t = max 64 ((8 * n) + 64) in
  let px = Array.make cap_v 0.0 and py = Array.make cap_v 0.0 in
  (* Super-triangle vertices 0, 1, 2 (CCW). *)
  px.(0) <- cx -. (2.0 *. r);
  py.(0) <- cy -. r;
  px.(1) <- cx +. (2.0 *. r);
  py.(1) <- cy -. r;
  px.(2) <- cx;
  py.(2) <- cy +. (2.0 *. r);
  Array.iteri
    (fun i (p : Point.t) ->
      px.(i + 3) <- p.Point.x;
      py.(i + 3) <- p.Point.y)
    points;
  let tv = Array.make (3 * cap_t) 0 in
  let tn = Array.make (3 * cap_t) (-1) in
  tv.(0) <- 0;
  tv.(1) <- 1;
  tv.(2) <- 2;
  let alive = Bytes.make cap_t '\000' in
  Bytes.set alive 0 '\001';
  {
    px;
    py;
    nv = Atomic.make (n + 3);
    tv;
    tn;
    alive;
    nt = Atomic.make 1;
    hint = 0;
  }

let ensure_capacity t ~vertices ~triangles =
  let need_v = Atomic.get t.nv + vertices in
  if need_v > Array.length t.px then begin
    let cap = max need_v (2 * Array.length t.px) in
    let px = Array.make cap 0.0 and py = Array.make cap 0.0 in
    Array.blit t.px 0 px 0 (Atomic.get t.nv);
    Array.blit t.py 0 py 0 (Atomic.get t.nv);
    t.px <- px;
    t.py <- py
  end;
  let need_t = Atomic.get t.nt + triangles in
  if 3 * need_t > Array.length t.tv then begin
    let cap = max need_t (2 * (Array.length t.tv / 3)) in
    let tv = Array.make (3 * cap) 0 and tn = Array.make (3 * cap) (-1) in
    Array.blit t.tv 0 tv 0 (3 * Atomic.get t.nt);
    Array.blit t.tn 0 tn 0 (3 * Atomic.get t.nt);
    t.tv <- tv;
    t.tn <- tn;
    let alive = Bytes.make cap '\000' in
    Bytes.blit t.alive 0 alive 0 (Atomic.get t.nt);
    t.alive <- alive
  end

let add_point t (p : Point.t) =
  let v = Atomic.fetch_and_add t.nv 1 in
  if v >= Array.length t.px then begin
    (* Roll back so a retry after ensure_capacity stays consistent. *)
    ignore (Atomic.fetch_and_add t.nv (-1));
    raise Capacity
  end;
  t.px.(v) <- p.Point.x;
  t.py.(v) <- p.Point.y;
  v

let alloc_triangles t k =
  let base = Atomic.fetch_and_add t.nt k in
  if 3 * (base + k) > Array.length t.tv then begin
    ignore (Atomic.fetch_and_add t.nt (-k));
    raise Capacity
  end;
  base

let find_live t =
  if is_alive t t.hint then t.hint
  else begin
    let n = Atomic.get t.nt in
    let rec go i =
      if i >= n then raise Not_found else if is_alive t i then i else go (i + 1)
    in
    go 0
  end

let contains t i (p : Point.t) =
  let a, b, c = tri_points t i in
  Point.point_in_triangle a b c p

(* Straight walk toward [p]; falls back to a linear scan if the walk cycles
   (possible with near-degenerate geometry). *)
let locate t p =
  let limit = 4 * (Atomic.get t.nt + 16) in
  let rec walk i steps =
    if steps > limit then scan ()
    else begin
      let a, b, c = tri_points t i in
      if Point.orient2d a b p < 0.0 then step i 0 steps
      else if Point.orient2d b c p < 0.0 then step i 1 steps
      else if Point.orient2d c a p < 0.0 then step i 2 steps
      else i
    end
  and step i e steps =
    let nb = tri_neighbor t i e in
    if nb = -1 then raise Not_found else walk nb (steps + 1)
  and scan () =
    let n = Atomic.get t.nt in
    let rec go i =
      if i >= n then raise Not_found
      else if is_alive t i && contains t i p then i
      else go (i + 1)
    in
    go 0
  in
  walk (find_live t) 0

let circumcircle_contains t i (p : Point.t) =
  let a, b, c = tri_points t i in
  Point.in_circle a b c p

let cavity_at t ~start p =
  (* Duplicate-point guard. *)
  let sa, sb, sc = tri_vertices t start in
  let dup =
    List.exists
      (fun v -> Point.dist2 (point t v) p < duplicate_eps2)
      [ sa; sb; sc ]
  in
  if dup then None
  else begin
    (* BFS over triangles whose circumcircle contains p. *)
    let in_cavity = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace in_cavity start ();
    Queue.push start q;
    let old_triangles = ref [] in
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      old_triangles := i :: !old_triangles;
      for e = 0 to 2 do
        let nb = tri_neighbor t i e in
        if nb <> -1 && (not (Hashtbl.mem in_cavity nb))
           && circumcircle_contains t nb p
        then begin
          Hashtbl.replace in_cavity nb ();
          Queue.push nb q
        end
      done
    done;
    let boundary = ref [] in
    List.iter
      (fun i ->
        let vs = [| t.tv.(3 * i); t.tv.((3 * i) + 1); t.tv.((3 * i) + 2) |] in
        for e = 0 to 2 do
          let nb = tri_neighbor t i e in
          if nb = -1 || not (Hashtbl.mem in_cavity nb) then
            boundary := (vs.(e), vs.((e + 1) mod 3), nb) :: !boundary
        done)
      !old_triangles;
    Some { center = p; old_triangles = !old_triangles; boundary = !boundary }
  end

let cavity_of t p =
  match locate t p with
  | exception Not_found -> None
  | start -> cavity_at t ~start p

let apply_insert t ~vertex cavity =
  let edges = Array.of_list cavity.boundary in
  let k = Array.length edges in
  assert (k >= 3);
  let base = alloc_triangles t k in
  (* Maps linking the fan: new triangle for boundary edge (a, b) is adjacent
     across (b, vertex) to the edge starting at b, and across (vertex, a) to
     the edge ending at a. *)
  let start_of = Hashtbl.create k and end_of = Hashtbl.create k in
  Array.iteri
    (fun j (a, b, _) ->
      Hashtbl.replace start_of a (base + j);
      Hashtbl.replace end_of b (base + j))
    edges;
  Array.iteri
    (fun j (a, b, outside) ->
      let i = base + j in
      t.tv.(3 * i) <- a;
      t.tv.((3 * i) + 1) <- b;
      t.tv.((3 * i) + 2) <- vertex;
      t.tn.(3 * i) <- outside;
      t.tn.((3 * i) + 1) <- Hashtbl.find start_of b;
      t.tn.((3 * i) + 2) <- Hashtbl.find end_of a;
      (* Stitch the outside triangle's back-pointer. *)
      if outside <> -1 then begin
        for e = 0 to 2 do
          if t.tv.((3 * outside) + e) = b
             && t.tv.((3 * outside) + ((e + 1) mod 3)) = a
          then t.tn.((3 * outside) + e) <- i
        done
      end;
      Bytes.set t.alive i '\001')
    edges;
  List.iter (fun i -> Bytes.set t.alive i '\000') cavity.old_triangles;
  t.hint <- base;
  base

let insert t p =
  ensure_capacity t ~vertices:1 ~triangles:16;
  match cavity_of t p with
  | None -> None
  | Some cavity ->
    let need = List.length cavity.boundary in
    ensure_capacity t ~vertices:1 ~triangles:need;
    let v = add_point t p in
    ignore (apply_insert t ~vertex:v cavity);
    Some v

let live_triangles pool t =
  Rpb_parseq.Pack.pack_index pool (fun i -> is_alive t i) (Atomic.get t.nt)

let real_triangles pool t =
  Rpb_parseq.Pack.pack_index pool (fun i -> is_real t i) (Atomic.get t.nt)

let num_real_triangles pool t =
  Rpb_pool.Pool.parallel_for_reduce ~start:0 ~finish:(Atomic.get t.nt)
    ~body:(fun i -> if is_real t i then 1 else 0)
    ~combine:( + ) ~init:0 pool

let validate t =
  let nt = Atomic.get t.nt in
  let nv = Atomic.get t.nv in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go i =
    if i >= nt then Ok ()
    else if not (is_alive t i) then go (i + 1)
    else begin
      let a, b, c = tri_vertices t i in
      if a < 0 || a >= nv || b < 0 || b >= nv || c < 0 || c >= nv then
        fail "triangle %d: vertex out of range" i
      else if a = b || b = c || a = c then fail "triangle %d: repeated vertex" i
      else begin
        let pa, pb, pc = tri_points t i in
        if Point.orient2d pa pb pc <= 0.0 then fail "triangle %d: not CCW" i
        else begin
          let rec edges e =
            if e > 2 then go (i + 1)
            else begin
              let nb = tri_neighbor t i e in
              if nb = -1 then edges (e + 1)
              else if nb < 0 || nb >= nt then fail "triangle %d: bad neighbour" i
              else if not (is_alive t nb) then
                fail "triangle %d: dead neighbour %d" i nb
              else begin
                (* The neighbour must hold the reversed edge pointing back. *)
                let u = t.tv.((3 * i) + e)
                and v = t.tv.((3 * i) + ((e + 1) mod 3)) in
                let found = ref false in
                for e' = 0 to 2 do
                  if t.tv.((3 * nb) + e') = v
                     && t.tv.((3 * nb) + ((e' + 1) mod 3)) = u
                     && t.tn.((3 * nb) + e') = i
                  then found := true
                done;
                if !found then edges (e + 1)
                else fail "triangle %d: asymmetric adjacency with %d" i nb
              end
            end
          in
          edges 0
        end
      end
    end
  in
  go 0

let min_live_angle pool t =
  Rpb_pool.Pool.parallel_for_reduce ~start:0 ~finish:(Atomic.get t.nt)
    ~body:(fun i ->
      if is_real t i then begin
        let a, b, c = tri_points t i in
        Point.min_angle a b c
      end
      else 180.0)
    ~combine:Float.min ~init:180.0 pool
