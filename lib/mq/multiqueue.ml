module Atomic_array = Rpb_prim.Atomic_array

(* Lane [i] is [heaps.(i)], guarded by the lock word at [rows.(row * i)].
   The lane's top priority is cached beside the lock at
   [rows.(row * i + 1)], [max_int] when the lane is empty: it is written
   only under the lock and read without it, so choosing a lane takes no
   lock.  One padded row per lane keeps two lanes' words off one cache
   line. *)
let row = Atomic_array.cells_per_line

type t = {
  heaps : Binary_heap.t array;
  rows : Atomic_array.t;
  (* Hands out the lane choices of the standalone [push]/[pop]; a
     scheduler worker draws its own and never touches it. *)
  ticket : int Atomic.t;
  seed : int;
}

let create ?(seed = 0x30b5) ~queues () =
  if queues < 1 then invalid_arg "Multiqueue.create: queues must be >= 1";
  let rows = Atomic_array.make (row * queues) 0 in
  for i = 0 to queues - 1 do
    Atomic_array.set rows ((row * i) + 1) max_int
  done;
  {
    heaps = Array.init queues (fun _ -> Binary_heap.create ());
    rows;
    ticket = Atomic.make 0;
    seed;
  }

let nqueues t = Array.length t.heaps

let[@inline] top t i = Atomic_array.unsafe_get t.rows ((row * i) + 1)

(* Lane choice: the PBBS hash of a counter owned by whoever chooses. *)
type picker = { mutable tick : int }

let[@inline] pick t p =
  p.tick <- p.tick + 1;
  Rpb_prim.Rng.hash64 (p.tick lxor t.seed) mod Array.length t.heaps

(* A standalone call's picker starts at its own ticket, 2^24 draws from the
   next call's. *)
let picker t = { tick = Atomic.fetch_and_add t.ticket 1 lsl 24 }

(* The next two run with lane [i]'s lock held. *)
let push_locked t i ~pri v =
  Binary_heap.push t.heaps.(i) ~pri v;
  if pri < top t i then Atomic_array.unsafe_set t.rows ((row * i) + 1) pri

let pop_locked t i =
  let heap = t.heaps.(i) in
  let r = Binary_heap.pop_min heap in
  Atomic_array.unsafe_set t.rows ((row * i) + 1)
    (match Binary_heap.peek_min heap with Some (p, _) -> p | None -> max_int);
  r

let with_lane t i f =
  Atomic_array.lock t.rows (row * i);
  let r = f t.heaps.(i) in
  Atomic_array.unlock t.rows (row * i);
  r

(* Takes the lock of a random lane, drawing a fresh lane whenever the lock
   is held, and returns the lane. *)
let rec lock_random t p =
  let i = pick t p in
  if Atomic_array.try_lock t.rows (row * i) then i
  else begin
    Domain.cpu_relax ();
    lock_random t p
  end

(* The lane with the smallest cached top, or -1 if every lane looks
   empty. *)
let best_lane t =
  let best = ref (-1) and best_top = ref max_int in
  for i = 0 to Array.length t.heaps - 1 do
    let p = top t i in
    if p < !best_top then begin
      best := i;
      best_top := p
    end
  done;
  !best

(* Best of two random lanes by their cached tops, then one try-lock of the
   better lane; a held lock or a lane emptied meanwhile draws a fresh pair.
   When both look empty, every lane's top is scanned once. *)
let rec pop_with t p =
  let i = pick t p and j = pick t p in
  let i = if top t j < top t i then j else i in
  let i = if top t i = max_int then best_lane t else i in
  if i < 0 then None
  else if Atomic_array.try_lock t.rows (row * i) then begin
    let r = pop_locked t i in
    Atomic_array.unlock t.rows (row * i);
    match r with Some _ -> r | None -> pop_with t p
  end
  else begin
    Domain.cpu_relax ();
    pop_with t p
  end

let push t ~pri v =
  let i = lock_random t (picker t) in
  push_locked t i ~pri v;
  Atomic_array.unlock t.rows (row * i)

let pop t = pop_with t (picker t)

let size t =
  let n = ref 0 in
  for i = 0 to nqueues t - 1 do
    n := !n + with_lane t i Binary_heap.size
  done;
  !n

let is_empty t = size t = 0

let stats t =
  let sizes =
    List.init (nqueues t) (fun i -> string_of_int (with_lane t i Binary_heap.size))
  in
  Printf.sprintf "lanes=%d sizes=[%s]" (nqueues t) (String.concat ";" sizes)

module Scheduler = struct
  module Pool = Rpb_pool.Pool

  type mq = t

  type shared = {
    mq : mq;
    (* Tasks pushed whose handler has not finished, in cell [row] of a
       two-row array so that no other word shares its line.  Strictly
       positive while any work (queued, executing or buffered) remains, so
       a worker observing [pop = None && in_flight = 0] can terminate. *)
    in_flight : Atomic_array.t;
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  }

  (* A worker's own state: its lane choices, and the tasks its current
     handler pushed, which reach a lane only after the handler returns. *)
  type worker = {
    picker : picker;
    mutable pris : int array;
    mutable vals : int array;
    mutable k : int;
  }

  (* Where a handle's pushes go: into the lanes (the handle [create]
     returns, between runs), into the private heap of a one-worker run, or
     into a worker's buffer (the handle a multi-worker run passes its
     handler). *)
  type local = Lanes | Solo of Binary_heap.t | Worker of worker
  type sched = { shared : shared; mutable local : local }

  let create mq =
    {
      shared =
        {
          mq;
          in_flight = Atomic_array.make (2 * row) 0;
          failure = Atomic.make None;
        };
      local = Lanes;
    }

  let buffer w ~pri v =
    if w.k = Array.length w.pris then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      w.pris <- grow w.pris;
      w.vals <- grow w.vals
    end;
    w.pris.(w.k) <- pri;
    w.vals.(w.k) <- v;
    w.k <- w.k + 1

  let push s ~pri v =
    match s.local with
    | Solo heap -> Binary_heap.push heap ~pri v
    | Worker w -> buffer w ~pri v
    | Lanes ->
      ignore (Atomic_array.fetch_and_add s.shared.in_flight row 1);
      push s.shared.mq ~pri v

  (* Empties the lanes; only called while no worker runs. *)
  let rec drain sh f =
    match pop sh.mq with
    | Some (pri, v) ->
      f ~pri v;
      drain sh f
    | None -> Atomic_array.set sh.in_flight row 0

  (* The task just handled is done and its [k] children are buffered: one
     update turns its unit of [in_flight] into theirs, before they become
     visible, and one lock puts all of them into a lane. *)
  let finish_task sh w =
    let k = w.k in
    if k <> 1 then ignore (Atomic_array.fetch_and_add sh.in_flight row (k - 1));
    if k > 0 then begin
      let mq = sh.mq in
      let i = lock_random mq w.picker in
      for j = 0 to k - 1 do
        push_locked mq i ~pri:w.pris.(j) w.vals.(j)
      done;
      Atomic_array.unlock mq.rows (row * i);
      w.k <- 0
    end

  let worker sh handler slot =
    let w =
      {
        picker = { tick = Rpb_prim.Rng.hash64 slot };
        pris = Array.make 16 0;
        vals = Array.make 16 0;
        k = 0;
      }
    in
    let handle = { shared = sh; local = Worker w } in
    let rec loop idle =
      match Atomic.get sh.failure with
      | Some _ -> ()
      | None ->
        (match pop_with sh.mq w.picker with
         | Some (pri, v) ->
           (match handler handle ~pri v with
            | () ->
              finish_task sh w;
              loop 0
            | exception e ->
              (* The buffered children go with the run. *)
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set sh.failure None (Some (e, bt))))
         | None ->
           if Atomic_array.get sh.in_flight row = 0 then ()
           else begin
             if idle < 64 then Domain.cpu_relax () else Unix.sleepf 5e-5;
             loop (idle + 1)
           end)
    in
    loop 0

  let run_solo s handler =
    let heap = Binary_heap.create () in
    drain s.shared (Binary_heap.push heap);
    s.local <- Solo heap;
    let rec loop () =
      match Binary_heap.pop_min heap with
      | Some (pri, v) ->
        handler s ~pri v;
        loop ()
      | None -> ()
    in
    (* On a handler exception the tasks left in [heap] are dropped with it. *)
    Fun.protect ~finally:(fun () -> s.local <- Lanes) loop

  (* One worker loop per slot, each a pool task.  A slot that starts after
     the work ran out finds [in_flight = 0] and returns at once, so the run
     never waits for every slot to get a domain.  [parallel_for] returns or
     raises only after every slot it started has stopped. *)
  let run_on pool s ~slots handler =
    let sh = s.shared in
    let pool_failure =
      match
        Pool.parallel_for ~grain:1 ~start:0 ~finish:slots
          ~body:(worker sh handler) pool
      with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let failure =
      match Atomic.get sh.failure with Some _ as f -> f | None -> pool_failure
    in
    match failure with
    | None -> ()
    | Some (e, bt) ->
      drain sh (fun ~pri:_ _ -> ());
      Atomic.set sh.failure None;
      Printexc.raise_with_backtrace e bt

  let run ?pool s ~num_workers ~handler =
    if num_workers < 1 then invalid_arg "Scheduler.run: num_workers >= 1";
    if num_workers = 1 then run_solo s handler
    else
      match pool with
      | Some pool -> run_on pool s ~slots:(min num_workers (Pool.size pool)) handler
      | None ->
        let pool = Pool.create ~num_workers () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            Pool.run pool (fun () ->
                run_on pool s ~slots:(Pool.size pool) handler))
end
