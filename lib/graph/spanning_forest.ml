open Rpb_pool

(* Both loops read the CSR arrays in place, at [Csr.make]-validated indices.
   A link of root [hi] writes its edge to [slot.(hi)]; a root is linked once
   (PBBS's reservation by root), so the forest is the written slots. *)
let spanning_forest pool (g : Csr.t) =
  let offsets = g.offsets and targets = g.targets in
  let uf = Union_find.create g.n in
  let slot = Array.make g.n (-1) in
  Pool.parallel_for ~start:0 ~finish:g.n
    ~body:(fun u ->
      for e = Array.unsafe_get offsets u to Array.unsafe_get offsets (u + 1) - 1 do
        let hi = Union_find.link uf u (Array.unsafe_get targets e) in
        if hi >= 0 then slot.(hi) <- e
      done)
    pool;
  Rpb_parseq.Pack.pack pool (fun e -> e >= 0) slot

(* The same loop on a plain parent array. *)
let spanning_forest_seq (g : Csr.t) =
  let offsets = g.offsets and targets = g.targets in
  let parent = Array.init g.n Fun.id in
  let out = Array.make (max 0 (g.n - 1)) 0 and k = ref 0 in
  for u = 0 to g.n - 1 do
    for e = Array.unsafe_get offsets u to Array.unsafe_get offsets (u + 1) - 1 do
      if Union_find.Seq.link parent u (Array.unsafe_get targets e) >= 0 then begin
        out.(!k) <- e;
        incr k
      end
    done
  done;
  Array.sub out 0 !k

(* Boruvka.  Priorities pack (weight, edge index) into one int so a single
   fetch-min elects the lightest (tie: lowest-index) edge per component. *)
let minimum_spanning_forest pool g =
  let edges = Csr.edges g in
  let m = Array.length edges in
  let n = Csr.n g in
  let shift = 1 + Rpb_prim.Util.ilog2 (max 1 m) in
  let pack e = (Csr.edge_weight g e lsl shift) lor e in
  let unpack_edge p = p land ((1 lsl shift) - 1) in
  let uf = Union_find.create n in
  let in_forest = Array.make m false in
  let live = ref (Rpb_parseq.Pack.pack_index pool (fun e -> fst edges.(e) <> snd edges.(e)) m) in
  let progress = ref true in
  while !progress && Array.length !live > 0 do
    (* Drop intra-component edges; stop if nothing can merge. *)
    let frontier =
      Rpb_parseq.Pack.pack pool
        (fun e ->
          let u, v = edges.(e) in
          not (Union_find.same uf u v))
        !live
    in
    live := frontier;
    if Array.length frontier = 0 then progress := false
    else begin
      let best = Rpb_prim.Atomic_array.make n max_int in
      (* Each edge bids on both endpoint components (AW fetch-min). *)
      Pool.parallel_for ~start:0 ~finish:(Array.length frontier)
        ~body:(fun j ->
          let e = frontier.(j) in
          let u, v = edges.(e) in
          let ru = Union_find.find uf u and rv = Union_find.find uf v in
          if ru <> rv then begin
            ignore (Rpb_prim.Atomic_array.fetch_min best ru (pack e));
            ignore (Rpb_prim.Atomic_array.fetch_min best rv (pack e))
          end)
        pool;
      (* Elected edges merge their components. *)
      let merged = Atomic.make 0 in
      Pool.parallel_for ~start:0 ~finish:n
        ~body:(fun r ->
          let b = Rpb_prim.Atomic_array.get best r in
          if b <> max_int then begin
            let e = unpack_edge b in
            let u, v = edges.(e) in
            if Union_find.union uf u v then begin
              in_forest.(e) <- true;
              Atomic.incr merged
            end
          end)
        pool;
      if Atomic.get merged = 0 then progress := false
    end
  done;
  Rpb_parseq.Pack.pack_index pool (fun e -> in_forest.(e)) m

let forest_weight g forest =
  Array.fold_left (fun acc e -> acc + Csr.edge_weight g e) 0 forest
