(* Offline reconstruction of the recorded series-parallel DAG.

   The recorder's construct ids are allocated in fork order, so a parent's id
   is always smaller than its children's — the event stream can only describe
   a tree, and the bottom-up evaluation below terminates without cycle
   checks.  Robustness against ring overflow is structural: a construct whose
   [Fork] was dropped is adopted by the root (its work still counts, its
   provenance is lost), and a missing [Exec] only forfeits that construct's
   queue-delay burden. *)

module R = Rpb_pool.Pool.Recorder

type worker = {
  w : int;
  work_ns : int;
  idle_ns : int;
  steals : int;
  tasks : int;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  minor_words : float;
}

type phase = { name : string; count : int; total_ns : int }

type t = {
  work_ns : int;
  span_ns : int;
  burdened_span_ns : int;
  parallelism : float;
  burdened_parallelism : float;
  constructs : int;
  tasks : int;
  steals : int;
  idle_ns : int;
  queue_delay_ns : int;
  events : int;
  dropped : int;
  per_worker : worker list;
  phases : phase list;
  granularity : (int * int) list;
}

(* Per-construct accumulator.  [branch 0] is the inline branch (ran on the
   forking strand), [branch 1] the spawned one. *)
type cinfo = {
  mutable has_fork : bool;
  mutable fork_ns : int;
  mutable fork_w : int;
  mutable exec_ns : int;  (* -1 until the spawned branch's [Exec] is seen *)
  mutable exec_w : int;
  mutable local0 : int;  (* strand-local work per branch, ns *)
  mutable local1 : int;
  mutable children0 : int list;  (* constructs forked from each branch *)
  mutable children1 : int list;
}

(* The queue-delay burden is charged only when the spawned branch migrated —
   executed on a different worker than the one that forked it.  Under the
   pool's help-first [join] a non-stolen branch is popped by its owner after
   the inline branch finishes, so its fork→exec gap merely replays the serial
   execution order; only a migration's gap is genuine scheduling burden
   (steal latency, deque contention, wake-up). *)
let burden c =
  if c.has_fork && c.exec_ns >= 0 && c.exec_w <> c.fork_w then
    max 0 (c.exec_ns - c.fork_ns)
  else 0

type wacc = {
  mutable a_work : int;
  mutable a_idle : int;
  mutable a_steals : int;
  mutable a_tasks : int;
  (* first/last cumulative Gc.quick_stat samples; events arrive
     timestamp-sorted, so first-seen is earliest.  The counters are
     process-wide, so the delta is the whole program's GC over this
     worker's sampling window, not this worker's own. *)
  mutable gc_first : (int * int * float * float) option;
  mutable gc_last : (int * int * float * float) option;
}

let log2_bucket ns =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 ns

let analyze (recording : R.recording) =
  let infos : (int, cinfo) Hashtbl.t = Hashtbl.create 256 in
  let construct id =
    match Hashtbl.find_opt infos id with
    | Some c -> c
    | None ->
      let c =
        {
          has_fork = false;
          fork_ns = 0;
          fork_w = -1;
          exec_ns = -1;
          exec_w = -1;
          local0 = 0;
          local1 = 0;
          children0 = [];
          children1 = [];
        }
      in
      Hashtbl.add infos id c;
      c
  in
  ignore (construct 0);
  let workers : (int, wacc) Hashtbl.t = Hashtbl.create 16 in
  let worker w =
    match Hashtbl.find_opt workers w with
    | Some a -> a
    | None ->
      let a =
        {
          a_work = 0;
          a_idle = 0;
          a_steals = 0;
          a_tasks = 0;
          gc_first = None;
          gc_last = None;
        }
      in
      Hashtbl.add workers w a;
      a
  in
  let phases : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  let n_events = ref 0 in
  List.iter
    (fun (e : R.event) ->
      incr n_events;
      match e with
      | Fork { id; parent; parent_branch; w; ts_ns } ->
        let c = construct id in
        c.has_fork <- true;
        c.fork_ns <- ts_ns;
        c.fork_w <- w;
        let p = construct parent in
        if parent_branch = 0 then p.children0 <- id :: p.children0
        else p.children1 <- id :: p.children1
      | Join _ -> ()
      | Work { construct = id; branch; w; begin_ns; end_ns } ->
        let d = max 0 (end_ns - begin_ns) in
        let c = construct id in
        if branch = 0 then c.local0 <- c.local0 + d
        else c.local1 <- c.local1 + d;
        (worker w).a_work <- (worker w).a_work + d
      | Exec { construct = id; w; begin_ns } ->
        let c = construct id in
        c.exec_ns <- begin_ns;
        c.exec_w <- w;
        (worker w).a_tasks <- (worker w).a_tasks + 1
      | Steal { thief; _ } -> (worker thief).a_steals <- (worker thief).a_steals + 1
      | Idle { w; begin_ns; end_ns } ->
        (worker w).a_idle <- (worker w).a_idle + max 0 (end_ns - begin_ns)
      | Phase { name; begin_ns; end_ns; _ } ->
        let count, total =
          match Hashtbl.find_opt phases name with
          | Some p -> p
          | None ->
            let p = (ref 0, ref 0) in
            Hashtbl.add phases name p;
            p
        in
        incr count;
        total := !total + max 0 (end_ns - begin_ns)
      | Gc_sample { w; minor_collections; major_collections; promoted_words;
                    minor_words; _ } ->
        let a = worker w in
        let s = (minor_collections, major_collections, promoted_words, minor_words) in
        if a.gc_first = None then a.gc_first <- Some s;
        a.gc_last <- Some s)
    recording.events;
  (* Adopt constructs whose [Fork] was lost to ring overflow: their work
     still counts, under the root. *)
  Hashtbl.iter
    (fun id c ->
      if id <> 0 && not c.has_fork then begin
        let root = Hashtbl.find infos 0 in
        root.children0 <- id :: root.children0
      end)
    infos;
  (* Bottom-up work/span/burdened-span.  Branches run in parallel with each
     other; a branch's children are in series with its local work.  The
     spawned branch additionally pays the construct's measured fork→exec
     queue delay in the burdened span. *)
  let memo : (int, int * int * int) Hashtbl.t = Hashtbl.create 256 in
  let rec eval id =
    match Hashtbl.find_opt memo id with
    | Some r -> r
    | None ->
      let c = Hashtbl.find infos id in
      let sum_branch local children =
        List.fold_left
          (fun (w, s, b) ch ->
            let cw, cs, cb = eval ch in
            (w + cw, s + cs, b + cb))
          (local, local, local) children
      in
      let w0, s0, b0 = sum_branch c.local0 c.children0 in
      let w1, s1, b1 = sum_branch c.local1 c.children1 in
      let r = (w0 + w1, max s0 s1, max b0 (burden c + b1)) in
      Hashtbl.add memo id r;
      r
  in
  let work_ns, span_ns, burdened_span_ns = eval 0 in
  let queue_delay_ns = Hashtbl.fold (fun _ c acc -> acc + burden c) infos 0 in
  (* Leaf-strand granularity: branches that forked nothing, bucketed by
     log2 of their local nanoseconds. *)
  let gran : (int, int ref) Hashtbl.t = Hashtbl.create 32 in
  let bucket ns =
    if ns > 0 then begin
      let k = log2_bucket ns in
      match Hashtbl.find_opt gran k with
      | Some r -> incr r
      | None -> Hashtbl.add gran k (ref 1)
    end
  in
  Hashtbl.iter
    (fun _ c ->
      if c.children0 = [] then bucket c.local0;
      if c.children1 = [] then bucket c.local1)
    infos;
  let per_worker =
    Hashtbl.fold
      (fun w a acc ->
        let dm, dj, dp, dw =
          match (a.gc_first, a.gc_last) with
          | Some (m0, j0, p0, w0), Some (m1, j1, p1, w1) ->
            (m1 - m0, j1 - j0, p1 -. p0, w1 -. w0)
          | _ -> (0, 0, 0., 0.)
        in
        {
          w;
          work_ns = a.a_work;
          idle_ns = a.a_idle;
          steals = a.a_steals;
          tasks = a.a_tasks;
          minor_collections = dm;
          major_collections = dj;
          promoted_words = dp;
          minor_words = dw;
        }
        :: acc)
      workers []
    |> List.sort (fun a b -> compare a.w b.w)
  in
  let phases =
    Hashtbl.fold
      (fun name (count, total) acc ->
        { name; count = !count; total_ns = !total } :: acc)
      phases []
    |> List.sort (fun a b -> compare (b.total_ns, b.name) (a.total_ns, a.name))
  in
  let granularity =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) gran []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let ratio a b = if b <= 0 then 1.0 else float_of_int a /. float_of_int b in
  {
    work_ns;
    span_ns;
    burdened_span_ns;
    parallelism = ratio work_ns span_ns;
    burdened_parallelism = ratio work_ns burdened_span_ns;
    constructs = Hashtbl.length infos - 1;
    tasks = List.fold_left (fun acc (w : worker) -> acc + w.tasks) 0 per_worker;
    steals = List.fold_left (fun acc (w : worker) -> acc + w.steals) 0 per_worker;
    idle_ns = List.fold_left (fun acc (w : worker) -> acc + w.idle_ns) 0 per_worker;
    queue_delay_ns;
    events = !n_events;
    dropped = recording.dropped;
    per_worker;
    phases;
    granularity;
  }

let predicted_speedup m p =
  let p = max 1 p in
  let t1 = float_of_int m.work_ns in
  if t1 <= 0. then 1.0
  else t1 /. ((t1 /. float_of_int p) +. float_of_int m.burdened_span_ns)

let load_imbalance m =
  let loaded = List.filter (fun (w : worker) -> w.work_ns > 0) m.per_worker in
  match loaded with
  | [] -> 1.0
  | _ ->
    let total = List.fold_left (fun acc (w : worker) -> acc + w.work_ns) 0 loaded in
    let mean = float_of_int total /. float_of_int (List.length loaded) in
    let mx = List.fold_left (fun acc (w : worker) -> max acc w.work_ns) 0 loaded in
    if mean <= 0. then 1.0 else float_of_int mx /. mean
