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

let[@inline] set_top t i pri = Atomic_array.unsafe_set t.rows ((row * i) + 1) pri

(* The next two run with lane [i]'s lock held; [remove_locked] also needs
   the lane non-empty. *)
let push_locked t i ~pri v =
  Binary_heap.push t.heaps.(i) ~pri v;
  if pri < top t i then set_top t i pri

let remove_locked t i =
  let heap = t.heaps.(i) in
  Binary_heap.remove_min heap;
  set_top t i
    (if Binary_heap.is_empty heap then max_int else Binary_heap.min_pri heap)

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
   When both look empty, every lane's top is scanned once.  Returns the
   locked, non-empty lane, or -1 when every lane looked empty. *)
let rec lock_best t p =
  let i = pick t p and j = pick t p in
  let i = if top t j < top t i then j else i in
  let i = if top t i = max_int then best_lane t else i in
  if i < 0 then -1
  else if Atomic_array.try_lock t.rows (row * i) then
    if Binary_heap.is_empty t.heaps.(i) then begin
      Atomic_array.unlock t.rows (row * i);
      lock_best t p
    end
    else i
  else begin
    Domain.cpu_relax ();
    lock_best t p
  end

let push t ~pri v =
  let i = lock_random t (picker t) in
  push_locked t i ~pri v;
  Atomic_array.unlock t.rows (row * i)

let pop t =
  let i = lock_best t (picker t) in
  if i < 0 then None
  else begin
    let heap = t.heaps.(i) in
    let r = (Binary_heap.min_pri heap, Binary_heap.min_val heap) in
    remove_locked t i;
    Atomic_array.unlock t.rows (row * i);
    Some r
  end

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

  (* The most tasks a worker takes from a lane under one lock, the deletion
     buffer of Williams, Sanders and Dementiev (ESA '21).  Of the sweep of
     1, 4, 8 and 16 on bfs and sssp (EXPERIMENTS.md), 16 is the smallest at
     which a second worker makes neither slower; a larger batch would relax
     the pop order further. *)
  let batch = 16

  type shared = {
    mq : mq;
    (* Tasks pushed whose handler has not finished, in cell [row] of a
       two-row array so that no other word shares its line.  Strictly
       positive while any work (queued, taken, executing or buffered)
       remains, so a worker observing no task in any lane and
       [in_flight = 0] can terminate. *)
    in_flight : Atomic_array.t;
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  }

  (* A worker's own state: its lane choices, the batch it took, and the
     tasks its handlers pushed, which reach a lane only after the whole
     batch ran. *)
  type worker = {
    picker : picker;
    taken_pris : int array;
    taken_vals : int array;
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

  (* Empties the lanes into [f]; only called while no worker runs. *)
  let drain sh f =
    let mq = sh.mq in
    Array.iteri
      (fun i heap ->
        while not (Binary_heap.is_empty heap) do
          f ~pri:(Binary_heap.min_pri heap) (Binary_heap.min_val heap);
          remove_locked mq i
        done)
      mq.heaps;
    Atomic_array.set sh.in_flight row 0

  (* Moves up to [batch] of lane [i]'s smallest tasks into the worker's
     batch and releases the lane; returns how many it took (at least one,
     since [lock_best] hands out non-empty lanes only). *)
  let take mq i w =
    let heap = mq.heaps.(i) in
    let n = ref 0 in
    while !n < batch && not (Binary_heap.is_empty heap) do
      w.taken_pris.(!n) <- Binary_heap.min_pri heap;
      w.taken_vals.(!n) <- Binary_heap.min_val heap;
      remove_locked mq i;
      incr n
    done;
    Atomic_array.unlock mq.rows (row * i);
    !n

  (* The [n] tasks of a batch are done and their [k] children are
     buffered: one update turns the batch's [n] units of [in_flight] into
     the children's, before they become visible, and one lock puts all of
     them into a lane. *)
  let finish_batch sh w n =
    let k = w.k in
    if k <> n then ignore (Atomic_array.fetch_and_add sh.in_flight row (k - n));
    if k > 0 then begin
      let mq = sh.mq in
      let i = lock_random mq w.picker in
      for j = 0 to k - 1 do
        push_locked mq i ~pri:w.pris.(j) w.vals.(j)
      done;
      Atomic_array.unlock mq.rows (row * i);
      w.k <- 0
    end

  (* A worker polls the pool's cancellation once per batch and once per
     idle round, so [Pool.cancel_run] and a [?deadline] stop a run that is
     already executing. *)
  let worker pool sh handler slot =
    let w =
      {
        picker = { tick = Rpb_prim.Rng.hash64 slot };
        taken_pris = Array.make batch 0;
        taken_vals = Array.make batch 0;
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
        Pool.check_cancel pool;
        let i = lock_best sh.mq w.picker in
        if i >= 0 then begin
          let n = take sh.mq i w in
          match
            for j = 0 to n - 1 do
              handler handle ~pri:w.taken_pris.(j) w.taken_vals.(j)
            done
          with
          | () ->
            finish_batch sh w n;
            loop 0
          | exception e ->
            (* The rest of the batch and the buffered children go with
               the run. *)
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set sh.failure None (Some (e, bt)))
        end
        else if Atomic_array.get sh.in_flight row = 0 then ()
        else begin
          if idle < 64 then Domain.cpu_relax () else Unix.sleepf 5e-5;
          loop (idle + 1)
        end
    in
    loop 0

  (* The one-worker run polls the pool's cancellation once per [batch]
     tasks, as a worker does once per batch. *)
  let run_solo pool s handler =
    let heap = Binary_heap.create () in
    drain s.shared (Binary_heap.push heap);
    s.local <- Solo heap;
    let rec loop left =
      if not (Binary_heap.is_empty heap) then
        if left = 0 then begin
          Option.iter Pool.check_cancel pool;
          loop batch
        end
        else begin
          let pri = Binary_heap.min_pri heap and v = Binary_heap.min_val heap in
          Binary_heap.remove_min heap;
          handler s ~pri v;
          loop (left - 1)
        end
    in
    (* On a handler exception the tasks left in [heap] are dropped with it. *)
    Fun.protect ~finally:(fun () -> s.local <- Lanes) (fun () -> loop 0)

  (* One worker loop per slot, each a pool task.  A slot that starts after
     the work ran out finds [in_flight = 0] and returns at once, so the run
     never waits for every slot to get a domain.  [parallel_for] returns or
     raises only after every slot it started has stopped. *)
  let run_on pool s ~slots handler =
    let sh = s.shared in
    let pool_failure =
      match
        Pool.parallel_for ~grain:1 ~start:0 ~finish:slots
          ~body:(worker pool sh handler) pool
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
    if num_workers = 1 then run_solo pool s handler
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
