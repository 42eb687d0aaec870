type t = Rpb_prim.Atomic_array.t

let create n = Rpb_prim.Atomic_array.init n Fun.id

(* Path halving: point [i] at its grandparent and continue from there.
   [gp = p] means [p] is the root (or [i] is, and then [p = i]), and the CAS
   is skipped.  The CAS is best-effort: a lost race means someone else
   compressed first, or [i] was a root that a racer just linked. *)
let rec find t i =
  let p = Rpb_prim.Atomic_array.get t i in
  let gp = Rpb_prim.Atomic_array.get t p in
  if gp = p then p
  else begin
    ignore (Rpb_prim.Atomic_array.compare_and_set t i p gp);
    find t gp
  end

let rec link t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then -1
  else begin
    (* Deterministic linking: the larger root is linked under the smaller. *)
    let hi = max ra rb and lo = min ra rb in
    if Rpb_prim.Atomic_array.compare_and_set t hi hi lo then hi
    else
      (* [hi] was linked by a racer; restart from the old roots. *)
      link t ra rb
  end

let union t a b = link t a b >= 0

let same t a b = find t a = find t b

let count_roots pool t =
  Rpb_pool.Pool.parallel_for_reduce ~start:0
    ~finish:(Rpb_prim.Atomic_array.length t)
    ~body:(fun i -> if Rpb_prim.Atomic_array.get t i = i then 1 else 0)
    ~combine:( + ) ~init:0 pool

let components pool t =
  Rpb_core.Par_array.init pool (Rpb_prim.Atomic_array.length t) (find t)

module Seq = struct
  let rec find parent i =
    let p = parent.(i) in
    let gp = parent.(p) in
    if gp = p then p
    else begin
      parent.(i) <- gp;
      find parent gp
    end

  let link parent a b =
    let ra = find parent a and rb = find parent b in
    if ra = rb then -1
    else begin
      parent.(max ra rb) <- min ra rb;
      max ra rb
    end
end
