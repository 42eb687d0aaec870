(* The two traversal references read the CSR arrays in the loop that
   [Traverse.search] uses, so the sequential baseline pays exactly the
   idioms the one-worker run pays: no closure per edge, and no bounds check
   on an index that [Csr.make] validated. *)

(* Each vertex enters the FIFO once, when its distance is set, so an array
   of [n] slots holds the whole queue. *)
let bfs_distances (g : Csr.t) ~src =
  let offsets = g.offsets and targets = g.targets in
  let dist = Array.make g.n max_int in
  let fifo = Array.make g.n 0 in
  dist.(src) <- 0;
  fifo.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = Array.unsafe_get fifo !head in
    incr head;
    let du = Array.unsafe_get dist u + 1 in
    for e = Array.unsafe_get offsets u to Array.unsafe_get offsets (u + 1) - 1 do
      let v = Array.unsafe_get targets e in
      if Array.unsafe_get dist v = max_int then begin
        Array.unsafe_set dist v du;
        Array.unsafe_set fifo !tail v;
        incr tail
      end
    done
  done;
  dist

let dijkstra (g : Csr.t) ~src =
  let offsets = g.offsets and targets = g.targets and weights = g.weights in
  let dist = Array.make g.n max_int in
  let heap = Rpb_mq.Binary_heap.create () in
  dist.(src) <- 0;
  Rpb_mq.Binary_heap.push heap ~pri:0 src;
  while not (Rpb_mq.Binary_heap.is_empty heap) do
    let d = Rpb_mq.Binary_heap.min_pri heap
    and u = Rpb_mq.Binary_heap.min_val heap in
    Rpb_mq.Binary_heap.remove_min heap;
    if d = Array.unsafe_get dist u then
      for e = Array.unsafe_get offsets u to Array.unsafe_get offsets (u + 1) - 1 do
        let v = Array.unsafe_get targets e in
        let nd =
          match weights with
          | None -> d + 1
          | Some weights -> d + Array.unsafe_get weights e
        in
        if nd < Array.unsafe_get dist v then begin
          Array.unsafe_set dist v nd;
          Rpb_mq.Binary_heap.push heap ~pri:nd v
        end
      done
  done;
  dist

let connected_components g =
  let n = Csr.n g in
  let parent = Array.init n Fun.id in
  for u = 0 to n - 1 do
    Csr.iter_neighbors g u (fun v -> ignore (Union_find.Seq.link parent u v))
  done;
  Array.init n (Union_find.Seq.find parent)

let num_components g =
  let comp = connected_components g in
  Array.fold_left ( + ) 0 (Array.mapi (fun i r -> Bool.to_int (r = i)) comp)

let is_independent_set g selected =
  let ok = ref true in
  for u = 0 to Csr.n g - 1 do
    if selected.(u) then
      Csr.iter_neighbors g u (fun v -> if v <> u && selected.(v) then ok := false)
  done;
  !ok

(* One pass over the CSR arrays, no closure: a selected vertex may have no
   selected neighbour other than itself; an unselected one needs a selected
   neighbour, and the scan of its row stops at the first.  An isolated,
   unselected vertex violates maximality. *)
let is_maximal_independent_set (g : Csr.t) selected =
  let offsets = g.Csr.offsets and targets = g.Csr.targets in
  let ok = ref true and next = ref 0 in
  while !ok && !next < g.Csr.n do
    let u = !next in
    let e = ref offsets.(u) and stop = offsets.(u + 1) in
    if selected.(u) then
      while !ok && !e < stop do
        let v = targets.(!e) in
        if v <> u && selected.(v) then ok := false;
        incr e
      done
    else begin
      while !e < stop && not selected.(targets.(!e)) do
        incr e
      done;
      if !e = stop then ok := false
    end;
    incr next
  done;
  !ok

(* Marks both endpoints of every selected edge in [matched]; false as soon
   as a selected edge is a self-loop or touches an already-matched
   vertex. *)
let mark_matched matched ~edges ~selected =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length edges do
    if selected.(!i) then begin
      let u, v = edges.(!i) in
      if u = v || matched.(u) || matched.(v) then ok := false
      else begin
        matched.(u) <- true;
        matched.(v) <- true
      end
    end;
    incr i
  done;
  !ok

let is_matching g ~edges ~selected =
  mark_matched (Array.make (Csr.n g) false) ~edges ~selected

(* Maximal: no edge with both endpoints unmatched remains; self-loops can
   never be matched, so they do not count. *)
let is_maximal_matching g ~edges ~selected =
  let matched = Array.make (Csr.n g) false in
  mark_matched matched ~edges ~selected
  && begin
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length edges do
      let u, v = edges.(!i) in
      if u <> v && not (matched.(u) || matched.(v)) then ok := false;
      incr i
    done;
    !ok
  end

let spanning_forest_weight g =
  let edges = Csr.edges g in
  let weighted =
    Array.mapi (fun e (u, v) -> (Csr.edge_weight g e, u, v)) edges
  in
  Array.sort compare weighted;
  let parent = Array.init (Csr.n g) Fun.id in
  Array.fold_left
    (fun acc (w, u, v) -> if Union_find.Seq.link parent u v >= 0 then acc + w else acc)
    0 weighted
