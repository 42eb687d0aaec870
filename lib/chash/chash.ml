exception Full

let empty_slot = -1

type t = {
  mask : int;
  slots : Rpb_prim.Atomic_array.t;
  population : int Atomic.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Chash.create: capacity must be positive";
  let n = Rpb_prim.Util.ceil_pow2 (2 * capacity) in
  {
    mask = n - 1;
    slots = Rpb_prim.Atomic_array.make n empty_slot;
    population = Atomic.make 0;
  }

let slots t = t.mask + 1

let hash_key t k = Rpb_prim.Rng.hash64 k land t.mask

(* Linear probing from slot [i], [steps] slots in.  A top-level function,
   so an insert allocates no closure. *)
let rec insert_probe t k i steps =
  if steps > t.mask then raise Full
  else begin
    let cur = Rpb_prim.Atomic_array.get t.slots i in
    if cur = k then false
    else if cur = empty_slot then
      if Rpb_prim.Atomic_array.compare_and_set t.slots i empty_slot k then begin
        Atomic.incr t.population;
        true
      end
      else
        (* Lost the race for this slot; re-examine it (the winner may have
           inserted our key). *)
        insert_probe t k i steps
    else insert_probe t k ((i + 1) land t.mask) (steps + 1)
  end

let insert t k =
  if k < 0 then invalid_arg "Chash.insert: negative key";
  insert_probe t k (hash_key t k) 0

let mem t k =
  if k < 0 then false
  else begin
    let start = hash_key t k in
    let rec probe i steps =
      if steps > t.mask then false
      else begin
        let cur = Rpb_prim.Atomic_array.get t.slots i in
        if cur = k then true
        else if cur = empty_slot then false
        else probe ((i + 1) land t.mask) (steps + 1)
      end
    in
    probe start 0
  end

let count t = Atomic.get t.population

(* Inserts are quiescent (see the interface), so the slots are packed in
   place: the coercion reads them as [Atomic_array.get] does. *)
let elements pool t =
  Rpb_parseq.Pack.pack pool (fun x -> x <> empty_slot) (t.slots :> int array)

let clear pool t =
  Rpb_pool.Pool.parallel_for ~start:0 ~finish:(slots t)
    ~body:(fun i -> Rpb_prim.Atomic_array.set t.slots i empty_slot)
    pool;
  Atomic.set t.population 0
