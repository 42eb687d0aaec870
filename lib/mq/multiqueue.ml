type lane = { lock : Mutex.t; heap : Binary_heap.t }

type t = {
  lanes : lane array;
  (* Domain-local RNG would be ideal; a lock-free splitmix step per call via
     an atomic counter keeps lane choice cheap and contention-free. *)
  ticket : int Atomic.t;
  seed : int;
}

let create ?(seed = 0x30b5) ~queues () =
  if queues < 1 then invalid_arg "Multiqueue.create: queues must be >= 1";
  {
    lanes =
      Array.init queues (fun _ ->
          { lock = Mutex.create (); heap = Binary_heap.create () });
    ticket = Atomic.make 0;
    seed;
  }

let nqueues t = Array.length t.lanes

let random_lane t =
  let n = Array.length t.lanes in
  if n = 1 then 0
  else begin
    let tk = Atomic.fetch_and_add t.ticket 1 in
    Rpb_prim.Rng.hash64 (tk lxor t.seed) mod n
  end

let push t ~pri v =
  let lane = t.lanes.(random_lane t) in
  Mutex.lock lane.lock;
  Binary_heap.push lane.heap ~pri v;
  Mutex.unlock lane.lock

(* Pop from one specific lane; returns None if it is empty. *)
let pop_lane lane =
  Mutex.lock lane.lock;
  let r = Binary_heap.pop_min lane.heap in
  Mutex.unlock lane.lock;
  r

let peek_pri lane =
  Mutex.lock lane.lock;
  let r = Binary_heap.peek_min lane.heap in
  Mutex.unlock lane.lock;
  match r with Some (pri, _) -> pri | None -> max_int

let pop t =
  let n = Array.length t.lanes in
  if n = 1 then pop_lane t.lanes.(0)
  else begin
    let i = random_lane t in
    let j =
      let j = random_lane t in
      if j = i then (j + 1) mod n else j
    in
    (* Relaxed best-of-two: peek both, pop the apparently-smaller lane.  The
       top may change between peek and pop; the MultiQueue's guarantees are
       probabilistic anyway. *)
    let pi = peek_pri t.lanes.(i) and pj = peek_pri t.lanes.(j) in
    let first, second = if pi <= pj then (i, j) else (j, i) in
    match pop_lane t.lanes.(first) with
    | Some _ as r -> r
    | None ->
      (match pop_lane t.lanes.(second) with
       | Some _ as r -> r
       | None ->
         (* Both empty: sweep all lanes once before reporting empty. *)
         let rec sweep k =
           if k >= n then None
           else
             match pop_lane t.lanes.(k) with
             | Some _ as r -> r
             | None -> sweep (k + 1)
         in
         sweep 0)
  end

let size t =
  Array.fold_left
    (fun acc lane ->
      Mutex.lock lane.lock;
      let s = Binary_heap.size lane.heap in
      Mutex.unlock lane.lock;
      acc + s)
    0 t.lanes

let is_empty t = size t = 0

let stats t =
  let sizes =
    Array.to_list
      (Array.map
         (fun lane ->
           Mutex.lock lane.lock;
           let s = Binary_heap.size lane.heap in
           Mutex.unlock lane.lock;
           string_of_int s)
         t.lanes)
  in
  Printf.sprintf "lanes=%d sizes=[%s]" (nqueues t) (String.concat ";" sizes)

module Scheduler = struct
  type mq = t

  type sched = {
    mq : mq;
    (* Tasks pushed but whose handler has not finished.  Strictly positive
       while any work (queued or executing) remains, so a worker observing
       [pop = None && in_flight = 0] can safely terminate. *)
    in_flight : int Atomic.t;
    failure : exn option Atomic.t;
    (* The private heap of a one-worker run while it lasts: its handler is
       the only pusher, so tasks skip the lanes, the lock and [in_flight]. *)
    mutable solo : Binary_heap.t option;
  }

  let create mq =
    { mq; in_flight = Atomic.make 0; failure = Atomic.make None; solo = None }

  let push s ~pri v =
    match s.solo with
    | Some heap -> Binary_heap.push heap ~pri v
    | None ->
      Atomic.incr s.in_flight;
      push s.mq ~pri v

  (* Empties the lanes; only called while no worker runs. *)
  let rec drain s f =
    match pop s.mq with
    | Some (pri, v) ->
      f ~pri v;
      drain s f
    | None -> Atomic.set s.in_flight 0

  let worker s handler =
    let rec loop idle =
      match Atomic.get s.failure with
      | Some _ -> ()
      | None ->
        (match pop s.mq with
         | Some (pri, v) ->
           (match handler s ~pri v with
            | () -> ()
            | exception e ->
              ignore (Atomic.compare_and_set s.failure None (Some e)));
           Atomic.decr s.in_flight;
           loop 0
         | None ->
           if Atomic.get s.in_flight = 0 then ()
           else begin
             if idle < 64 then Domain.cpu_relax () else Unix.sleepf 5e-5;
             loop (idle + 1)
           end)
    in
    loop 0

  let run_solo s handler =
    let heap = Binary_heap.create () in
    drain s (Binary_heap.push heap);
    s.solo <- Some heap;
    let rec loop () =
      match Binary_heap.pop_min heap with
      | Some (pri, v) ->
        handler s ~pri v;
        loop ()
      | None -> ()
    in
    (* On a handler exception the tasks left in [heap] are dropped with it. *)
    Fun.protect ~finally:(fun () -> s.solo <- None) loop

  let run_spawned s ~num_workers handler =
    let domains =
      Array.init (num_workers - 1) (fun _ ->
          Domain.spawn (fun () -> worker s handler))
    in
    worker s handler;
    Array.iter Domain.join domains;
    match Atomic.get s.failure with
    | Some e ->
      drain s (fun ~pri:_ _ -> ());
      Atomic.set s.failure None;
      raise e
    | None -> ()

  let run s ~num_workers ~handler =
    if num_workers < 1 then invalid_arg "Scheduler.run: num_workers >= 1";
    if num_workers = 1 then run_solo s handler
    else run_spawned s ~num_workers handler
end
