let bfs_distances g ~src =
  let n = Csr.n g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Csr.iter_neighbors g u (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
  done;
  dist

let dijkstra g ~src =
  let n = Csr.n g in
  let dist = Array.make n max_int in
  let heap = Rpb_mq.Binary_heap.create () in
  dist.(src) <- 0;
  Rpb_mq.Binary_heap.push heap ~pri:0 src;
  let rec drain () =
    match Rpb_mq.Binary_heap.pop_min heap with
    | None -> ()
    | Some (d, u) ->
      if d = dist.(u) then
        Csr.iter_neighbors_w g u (fun v w ->
            let nd = d + w in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              Rpb_mq.Binary_heap.push heap ~pri:nd v
            end);
      drain ()
  in
  drain ();
  dist

let seq_union_find n =
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- parent.(parent.(i));
      find parent.(i)
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra = rb then false
    else begin
      let hi = max ra rb and lo = min ra rb in
      parent.(hi) <- lo;
      true
    end
  in
  (find, union)

let connected_components g =
  let n = Csr.n g in
  let find, union = seq_union_find n in
  for u = 0 to n - 1 do
    Csr.iter_neighbors g u (fun v -> ignore (union u v))
  done;
  Array.init n find

let num_components g =
  let comp = connected_components g in
  let roots = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace roots r ()) comp;
  Hashtbl.length roots

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
  let _, union = seq_union_find (Csr.n g) in
  Array.fold_left
    (fun acc (w, u, v) -> if u <> v && union u v then acc + w else acc)
    0 weighted
