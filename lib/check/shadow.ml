open Rpb_pool

type race = {
  index : int;
  first_src : int;
  first_task : int;
  second_src : int;
  second_task : int;
}

let race_to_string r =
  Printf.sprintf
    "race at index %d: src %d (task %d) vs src %d (task %d)" r.index
    r.first_src r.first_task r.second_src r.second_task

(* Process-global switch, same discipline as Pool.Recorder: the disabled path
   pays exactly one atomic load per write. *)
let enabled_flag = Atomic.make false

let instrumentation_enabled () = Atomic.get enabled_flag
let set_instrumentation b = Atomic.set enabled_flag b

let with_instrumentation b f =
  let prev = Atomic.exchange enabled_flag b in
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag prev) f

type 'a t = {
  payload : 'a array;
  stamp : Rpb_prim.Atomic_array.t;  (** epoch of the last write per slot *)
  who : int array;  (** worker id of the epoch-claiming writer (racy, diag) *)
  src_of : int array;  (** source label of that writer (racy, diag) *)
  epoch : int Atomic.t;
  writes : int Atomic.t;
  races_mutex : Mutex.t;
  mutable race_log : race list;  (** newest first *)
  mutable race_n : int;
  pool : Pool.t option;
}

(* Epoch 0 is never current (begin_op bumps before any write is recorded
   against it), so a fresh zero-filled stamp table means "never written". *)
let create ?pool payload =
  let n = Array.length payload in
  {
    payload;
    stamp = Rpb_prim.Atomic_array.make n 0;
    who = Array.make n (-1);
    src_of = Array.make n (-1);
    epoch = Atomic.make 1;
    writes = Atomic.make 0;
    races_mutex = Mutex.create ();
    race_log = [];
    race_n = 0;
    pool;
  }

let payload t = t.payload
let length t = Array.length t.payload
let begin_op t = Atomic.incr t.epoch

let races t =
  Mutex.lock t.races_mutex;
  let r = List.rev t.race_log in
  Mutex.unlock t.races_mutex;
  r

let race_count t = t.race_n

let clear_races t =
  Mutex.lock t.races_mutex;
  t.race_log <- [];
  t.race_n <- 0;
  Mutex.unlock t.races_mutex

(* Keep every race's existence but cap the retained details: a badly broken
   offsets array can conflict on every element. *)
let max_logged_races = 4096

let add_race t ~idx ~src ~me =
  let r =
    {
      index = idx;
      first_src = t.src_of.(idx);
      first_task = t.who.(idx);
      second_src = src;
      second_task = me;
    }
  in
  Mutex.lock t.races_mutex;
  if t.race_n < max_logged_races then t.race_log <- r :: t.race_log;
  t.race_n <- t.race_n + 1;
  Mutex.unlock t.races_mutex

let record t ~idx ~src =
  Atomic.incr t.writes;
  let me =
    match t.pool with
    | Some p -> (match Pool.current_worker p with Some w -> w | None -> -1)
    | None -> -1
  in
  let e = Atomic.get t.epoch in
  let s = Rpb_prim.Atomic_array.get t.stamp idx in
  if s = e then add_race t ~idx ~src ~me
  else if Rpb_prim.Atomic_array.compare_and_set t.stamp idx s e then begin
    (* We own the slot for this epoch; the diagnostic fields are plain
       stores — a concurrent racer reads them racily, which only blurs the
       attribution of an already-reported race. *)
    t.who.(idx) <- me;
    t.src_of.(idx) <- src
  end
  else
    (* Lost the claim to a concurrent first writer: that is the race. *)
    add_race t ~idx ~src ~me

let write t ~idx ~src v =
  if idx < 0 || idx >= Array.length t.payload then
    raise (Rpb_core.Scatter.Offset_out_of_range idx);
  if Atomic.get enabled_flag then record t ~idx ~src;
  Array.unsafe_set t.payload idx v

let write_count t = Atomic.get t.writes

module Store = struct
  type nonrec 'a t = 'a t

  let length = length
  let set t ~idx ~src v = write t ~idx ~src v
end
