type task = unit -> unit

type 'a state = Pending | Done of 'a | Raised of exn

exception Shutdown
exception Cancelled
exception Stalled of string

(* ------------------------------------------------------------------ *)
(* Structured cancellation.

   Every [run] owns one scope.  Tasks spawned during the run carry a
   reference to it; the first exception escaping a task (a [join] branch,
   and with it every [parallel_for]/[parallel_for_reduce] subtree) records
   itself in [first_exn] and flips [cancel_flag], after which splitters stop
   descending, not-yet-started tasks of the scope are skipped, and [run]
   re-raises the recorded exception — but only once [outstanding] has
   drained to zero, so no task of a failed run is still touching caller
   state when [run] returns.  The happy-path cost is one atomic load per
   scheduling decision (split / join / task start), the same budget as the
   [Recorder] switch. *)

type scope = {
  cancel_flag : bool Atomic.t;
  first_exn : (exn * Printexc.raw_backtrace) option Atomic.t;
  outstanding : int Atomic.t;  (** tasks of this scope created but not yet resolved *)
  deadline_s : float option;  (** the [run ?deadline], bounding drains *)
}

let new_scope ?deadline () =
  {
    cancel_flag = Atomic.make false;
    first_exn = Atomic.make None;
    outstanding = Atomic.make 0;
    deadline_s = deadline;
  }

(* Per-domain nesting depth of parallel constructs ([join] /
   [parallel_for(_reduce)] frames and task bodies).  Depth 0 means "the run
   body": when an exception finishes unwinding back to depth 0 the failure
   has been delivered to user code, so the scope's stragglers are drained
   and a fresh scope installed — catching the exception there leaves the
   run healthy and reusable. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* [first_exn] is CAS-published before [cancel_flag] is set, so any observer
   of a raised flag is guaranteed to find the exception. *)
let scope_cancel scope e bt =
  ignore (Atomic.compare_and_set scope.first_exn None (Some (e, bt)));
  Atomic.set scope.cancel_flag true

let scope_raise scope =
  match Atomic.get scope.first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> raise Cancelled

(* ------------------------------------------------------------------ *)
(* Per-worker counters.

   Each worker owns one [int array] slab, allocated separately and padded to
   a cache line, so the hot-path increments never contend: a worker writes
   only its own slab and the aggregator ([Stats.capture]) performs racy plain
   reads, which is fine for monotonic diagnostics counters. *)

let c_tasks = 0
let c_steals_ok = 1
let c_steals_failed = 2
let c_idle = 3
let c_max_depth = 4

(* 8 words = 64 bytes of payload per slab: one full cache line, so two
   workers' counters never share one.  Slots past [c_max_depth] are padding. *)
let counter_slots = 8

(* ------------------------------------------------------------------ *)
(* Scheduler constants.

   One scheduler, no knobs: steal one task per steal from a uniform-random
   victim, help-first [join], eager splitting down to [grain]-sized leaves
   with a default grain of [n / (8 * workers)], and the spin/backoff
   constants below.  The alternatives (lazy splitting, steal-half batches,
   work-first fork order, victim affinity) never beat these beyond noise
   (EXPERIMENTS.md § Scheduler race). *)

(* Spins before a worker sleeps or a waiter backs off. *)
let spin_budget = 64

(* A helping [await]'s sleep when it finds no work to steal. *)
let idle_sleep_s = 5e-5

(* A draining scope polls at [backoff_min_s], doubling up to [backoff_max_s]. *)
let backoff_min_s = 1e-6
let backoff_max_s = 1e-3

(* Default leaves per worker for a call site that passes no [?grain]. *)
let leaves_per_worker = 8

(* How the pool turns a parallel region into an execution order.  [Ws] is the
   production work-stealing scheduler.  [Seq_det] is the deterministic
   sequential executor behind [create_deterministic]: one domain, and — when
   [shuffle] is on — a seeded permutation of the leaf order, so it explores
   alternative (but valid) fork-join schedules reproducibly.  It is the
   reference semantics the differential oracle in [lib/check] diffs against. *)
type sched = Ws | Seq_det of { rng : Rpb_prim.Rng.t; shuffle : bool }

type t = {
  id : int;
  (* Actual worker count.  May end up below [requested_workers] when
     [Domain.spawn] keeps failing and [create] degrades gracefully; written
     once during [make_pool], racy plain reads afterwards are benign. *)
  mutable num_workers : int;
  requested_workers : int;
  sched : sched;
  deques : task Ws_deque.t array;
  mutable domains : unit Domain.t array;
  idle_mutex : Mutex.t;
  idle_cond : Condition.t;
  wake_version : int Atomic.t;
  sleepers : int Atomic.t;
  shutdown_flag : bool Atomic.t;
  running : bool Atomic.t;
  scope : scope Atomic.t;  (* the active run's cancellation scope *)
  counters : int array array;
}

let next_pool_id = Atomic.make 0

(* Which (pool id, worker index) the current domain is executing for. *)
let slot_key : (int * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_index pool =
  match !(Domain.DLS.get slot_key) with
  | Some (pid, idx) when pid = pool.id -> Some idx
  | _ -> None

let size pool = pool.num_workers

(* Alias for annotating functions defined after [Stats], whose record fields
   would otherwise shadow [t]'s during inference. *)
type pool = t

(* ------------------------------------------------------------------ *)
(* Structured scheduler telemetry (replaces the old global atomics).    *)

module Stats = struct
  type worker = {
    worker_id : int;
    tasks_executed : int;
    steals_ok : int;
    steals_failed : int;
    idle_episodes : int;
    max_deque_depth : int;
  }

  type t = {
    num_workers : int;
    requested_workers : int;
    per_worker : worker array;
  }

  let total f t = Array.fold_left (fun acc w -> acc + f w) 0 t.per_worker
  let tasks_executed t = total (fun w -> w.tasks_executed) t
  let steals_ok t = total (fun w -> w.steals_ok) t
  let steals_failed t = total (fun w -> w.steals_failed) t
  let idle_episodes t = total (fun w -> w.idle_episodes) t

  let max_deque_depth t =
    Array.fold_left (fun acc w -> max acc w.max_deque_depth) 0 t.per_worker

  (* Counters are monotonic, so a window of activity is [after - before];
     [max_deque_depth] is a high-water mark and keeps the [after] value. *)
  let diff ~before ~after =
    let sub wa wb =
      {
        worker_id = wa.worker_id;
        tasks_executed = wa.tasks_executed - wb.tasks_executed;
        steals_ok = wa.steals_ok - wb.steals_ok;
        steals_failed = wa.steals_failed - wb.steals_failed;
        idle_episodes = wa.idle_episodes - wb.idle_episodes;
        max_deque_depth = wa.max_deque_depth;
      }
    in
    {
      num_workers = after.num_workers;
      requested_workers = after.requested_workers;
      per_worker =
        Array.mapi
          (fun i wa ->
            if i < Array.length before.per_worker then
              sub wa before.per_worker.(i)
            else wa)
          after.per_worker;
    }

  let summary t =
    Printf.sprintf "workers=%d%s tasks=%d steals=%d failed-steals=%d idle=%d"
      t.num_workers
      (if t.num_workers < t.requested_workers then
         Printf.sprintf " (of %d requested)" t.requested_workers
       else "")
      (tasks_executed t) (steals_ok t) (steals_failed t) (idle_episodes t)

  let to_string t =
    let b = Buffer.create 256 in
    Buffer.add_string b (summary t);
    Array.iter
      (fun w ->
        Buffer.add_string b
          (Printf.sprintf
             "\n  worker %2d: tasks=%-8d steals=%-6d failed=%-6d idle=%-5d \
              max-depth=%d"
             w.worker_id w.tasks_executed w.steals_ok w.steals_failed
             w.idle_episodes w.max_deque_depth))
      t.per_worker;
    Buffer.contents b

  let capture (pool : pool) =
    {
      num_workers = pool.num_workers;
      requested_workers = pool.requested_workers;
      (* Counter slabs are allocated for the requested count; only the
         workers that actually exist are reported. *)
      per_worker =
        Array.init pool.num_workers (fun i ->
            let c = pool.counters.(i) in
            {
              worker_id = i;
              tasks_executed = c.(c_tasks);
              steals_ok = c.(c_steals_ok);
              steals_failed = c.(c_steals_failed);
              idle_episodes = c.(c_idle);
              max_deque_depth = c.(c_max_depth);
            });
    }

  let reset (pool : pool) =
    Array.iter (fun c -> Array.fill c 0 counter_slots 0) pool.counters
end

(* ------------------------------------------------------------------ *)
(* Scheduler flight recorder.

   Off by default; every instrumented site is gated on one atomic load of
   the recorder's switch, so the scheduling hot paths keep their
   uninstrumented cost.  When armed, each domain appends task-lifecycle
   events into its own lock-free ring buffer — single writer, drop-oldest on
   overflow, with the drop count recoverable from the monotonically growing
   total — and [stop] collects the rings into one timestamp-sorted event
   list for the post-run analyzer in [lib/obs].

   The events carry enough series-parallel provenance to reconstruct the
   fork-join DAG offline: every [join] (and through it every [parallel_for]
   split) allocates a fresh construct id and records which (construct,
   branch) strand forked it, and every strand's computation is covered by
   [Work] segments — opened/closed around fork points, task execution, and
   joins, so time spent waiting or helping in [await] is never charged as
   work.  Timestamps come from the monotonic clock in [Rpb_prim.Timing]. *)

module Recorder = struct
  type event =
    | Fork of {
        id : int;  (** fresh construct id of this [join] *)
        parent : int;  (** construct id of the forking strand *)
        parent_branch : int;  (** branch of [parent] the forking strand is on *)
        w : int;
        ts_ns : int;
      }
    | Join of { id : int; w : int; ts_ns : int }
    | Work of {
        construct : int;
        branch : int;  (** 0 = inline branch, 1 = spawned branch *)
        w : int;
        begin_ns : int;
        end_ns : int;
      }
    | Exec of { construct : int; w : int; begin_ns : int }
    | Steal of { thief : int; victim : int; ts_ns : int }
    | Idle of { w : int; begin_ns : int; end_ns : int }
    | Phase of { name : string; w : int; begin_ns : int; end_ns : int }
    | Gc_sample of {
        w : int;
        ts_ns : int;
        minor_collections : int;
        major_collections : int;
        promoted_words : float;
        minor_words : float;
      }

  let ts_of = function
    | Fork { ts_ns; _ } | Join { ts_ns; _ } | Steal { ts_ns; _ }
    | Gc_sample { ts_ns; _ } ->
      ts_ns
    | Work { begin_ns; _ } | Exec { begin_ns; _ } | Idle { begin_ns; _ }
    | Phase { begin_ns; _ } ->
      begin_ns

  type recording = { events : event list; dropped : int }

  let armed = Atomic.make false
  let enabled () = Atomic.get armed
  let now_ns = Rpb_prim.Timing.monotonic_ns

  (* Per-domain ring buffer: single writer (the owning domain), read only
     after [stop] has disarmed the switch.  [total] grows without bound; the
     ring keeps the newest [capacity] events (drop-oldest). *)
  type ring = { buf : event array; mutable total : int }

  let dummy_event = Join { id = -1; w = -1; ts_ns = 0 }
  let default_capacity = 1 lsl 15
  let capacity = Atomic.make default_capacity
  let registry_mutex = Mutex.create ()
  let rings : ring list ref = ref []

  (* Bumped on every [start]/[stop] so stale DLS rings and strand contexts
     from a previous session are abandoned rather than mixed in. *)
  let generation = Atomic.make 0

  let ring_key : (int * ring) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let my_ring () =
    let slot = Domain.DLS.get ring_key in
    let gen = Atomic.get generation in
    match !slot with
    | Some (g, r) when g = gen -> r
    | _ ->
      let r = { buf = Array.make (Atomic.get capacity) dummy_event; total = 0 } in
      Mutex.lock registry_mutex;
      rings := r :: !rings;
      Mutex.unlock registry_mutex;
      slot := Some (gen, r);
      r

  let emit e =
    let r = my_ring () in
    let cap = Array.length r.buf in
    r.buf.(r.total land (cap - 1)) <- e;
    r.total <- r.total + 1

  (* Per-domain strand context: which (construct, branch) the domain is
     computing for, and since when.  [seg_ns = 0] means no open segment
     (the domain is scheduling, waiting, or helping). *)
  type ctx = {
    mutable construct : int;
    mutable branch : int;
    mutable seg_ns : int;
    mutable since_gc : int;
  }

  let ctx_key : (int * ctx) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let my_ctx () =
    let slot = Domain.DLS.get ctx_key in
    let gen = Atomic.get generation in
    match !slot with
    | Some (g, c) when g = gen -> c
    | _ ->
      let c = { construct = 0; branch = 0; seg_ns = 0; since_gc = 0 } in
      slot := Some (gen, c);
      c

  let next_construct = Atomic.make 1

  let gc_sample ~w =
    let s = Gc.quick_stat () in
    emit
      (Gc_sample
         {
           w;
           ts_ns = now_ns ();
           minor_collections = s.Gc.minor_collections;
           major_collections = s.Gc.major_collections;
           promoted_words = s.Gc.promoted_words;
           minor_words = s.Gc.minor_words;
         })

  let seg_close ~w c =
    if c.seg_ns <> 0 then begin
      emit
        (Work
           {
             construct = c.construct;
             branch = c.branch;
             w;
             begin_ns = c.seg_ns;
             end_ns = now_ns ();
           });
      c.seg_ns <- 0
    end

  let seg_open c ~construct ~branch =
    c.construct <- construct;
    c.branch <- branch;
    c.seg_ns <- now_ns ()

  (* Instrumentation points, called by the pool internals below only when
     [enabled ()].  [fork] closes the forking strand's segment, emits the
     provenance event, and returns what [join_done] needs to restore the
     strand afterwards. *)

  let fork ~w =
    let c = my_ctx () in
    seg_close ~w c;
    let id = Atomic.fetch_and_add next_construct 1 in
    emit
      (Fork
         { id; parent = c.construct; parent_branch = c.branch; w; ts_ns = now_ns () });
    (id, c.construct, c.branch)

  let branch_open ~w:_ (id, _, _) = seg_open (my_ctx ()) ~construct:id ~branch:0

  let seg_close_cur ~w = seg_close ~w (my_ctx ())

  let join_done ~w (id, pc, pb) =
    let c = my_ctx () in
    seg_close ~w c;
    emit (Join { id; w; ts_ns = now_ns () });
    seg_open c ~construct:pc ~branch:pb

  (* GC sampled every [gc_every] task starts per domain — often enough to
     attribute collector pressure per worker, rare enough that the sampling
     (Gc.quick_stat allocates its stat record) does not perturb what it
     measures. *)
  let gc_every = 64

  (* Wrapper around a spawned [join] branch: saves whatever strand the
     executing domain was on (a worker helping under [await] has none), tags
     the task's computation with its (construct, 1) provenance, and records
     the queue delay via [Exec] (matched with [Fork] by construct id). *)
  let run_branch pool construct g () =
    if not (enabled ()) then g ()
    else begin
      let w = match my_index pool with Some i -> i | None -> -1 in
      let c = my_ctx () in
      let s_construct = c.construct and s_branch = c.branch in
      let interrupted = c.seg_ns <> 0 in
      if interrupted then seg_close ~w c;
      emit (Exec { construct; w; begin_ns = now_ns () });
      c.since_gc <- c.since_gc + 1;
      if c.since_gc >= gc_every then begin
        c.since_gc <- 0;
        gc_sample ~w
      end;
      seg_open c ~construct ~branch:1;
      let restore () =
        seg_close ~w c;
        c.construct <- s_construct;
        c.branch <- s_branch;
        if interrupted then c.seg_ns <- now_ns ()
      in
      match g () with
      | x ->
        restore ();
        x
      | exception e ->
        restore ();
        raise e
    end

  let idle_event ~w ~begin_ns = emit (Idle { w; begin_ns; end_ns = now_ns () })
  let steal_event ~thief ~victim = emit (Steal { thief; victim; ts_ns = now_ns () })

  (* One atomic load and no allocation while the recorder is off; a [Phase]
     event attributed to the calling worker while it is on.  A span still
     open when [stop] runs emits nothing, so it cannot open a ring that
     outlives the session. *)
  let span pool name f =
    if not (enabled ()) then f ()
    else begin
      let begin_ns = now_ns () in
      let finish () =
        if enabled () then begin
          let w = match my_index pool with Some i -> i | None -> -1 in
          emit (Phase { name; w; begin_ns; end_ns = now_ns () })
        end
      in
      match f () with
      | x ->
        finish ();
        x
      | exception e ->
        finish ();
        raise e
    end

  let with_root f =
    if not (enabled ()) then f ()
    else begin
      let c = my_ctx () in
      gc_sample ~w:0;
      seg_open c ~construct:0 ~branch:0;
      match f () with
      | x ->
        seg_close ~w:0 c;
        gc_sample ~w:0;
        x
      | exception e ->
        seg_close ~w:0 c;
        gc_sample ~w:0;
        raise e
    end

  let rec round_up_pow2 n k = if k >= n then k else round_up_pow2 n (k * 2)

  let start ?(ring_capacity = default_capacity) () =
    Atomic.set capacity (round_up_pow2 (max 16 ring_capacity) 16);
    Mutex.lock registry_mutex;
    rings := [];
    Mutex.unlock registry_mutex;
    Atomic.incr generation;
    Atomic.set next_construct 1;
    Atomic.set armed true

  let stop () =
    Atomic.set armed false;
    Mutex.lock registry_mutex;
    let rs = !rings in
    rings := [];
    Mutex.unlock registry_mutex;
    Atomic.incr generation;
    let dropped =
      List.fold_left
        (fun acc r -> acc + max 0 (r.total - Array.length r.buf))
        0 rs
    in
    let events =
      List.concat_map
        (fun r ->
          let cap = Array.length r.buf in
          let n = min r.total cap in
          let first = r.total - n in
          List.init n (fun i -> r.buf.((first + i) land (cap - 1))))
        rs
    in
    let events = List.sort (fun a b -> compare (ts_of a) (ts_of b)) events in
    { events; dropped }
end

(* ------------------------------------------------------------------ *)
(* Scheduler fault injection.

   Follows the [Recorder]/[Shadow] global-switch pattern: off by default, and
   every injection site is gated on one atomic load ([armed ()]) so the
   scheduler hot paths keep their uninstrumented cost.  When enabled, each
   domain derives a private RNG from the configured seed (and its domain id),
   and at every scheduler decision point — task start, successful steal,
   domain spawn — flips a seeded coin against the configured probability.
   Used by [Oracle.fault_sweep] to prove the runtime fails cleanly: injected
   task exceptions must propagate structurally, injected delays and stalls
   must never change results, injected spawn failures must degrade [create]
   to fewer workers instead of crashing. *)

module Fault = struct
  type config = {
    seed : int;  (** derives every per-domain injection stream *)
    task_exn : float;  (** P(raise [Injected] instead of starting a task) *)
    steal_delay : float;  (** P(sleep [delay_us] after a successful steal) *)
    worker_stall : float;  (** P(sleep [delay_us] before executing a task) *)
    spawn_fail : float;  (** P(a [Domain.spawn] attempt fails) *)
    delay_us : int;  (** magnitude of injected delays and stalls *)
  }

  let off =
    {
      seed = 0;
      task_exn = 0.;
      steal_delay = 0.;
      worker_stall = 0.;
      spawn_fail = 0.;
      delay_us = 50;
    }

  exception Injected of string

  type counts = {
    task_exns : int;
    steal_delays : int;
    worker_stalls : int;
    spawn_fails : int;
  }

  let enabled_flag = Atomic.make false
  let config = Atomic.make off

  (* Bumped on every [enable] so cached per-domain RNGs re-seed. *)
  let generation = Atomic.make 0
  let n_task = Atomic.make 0
  let n_steal = Atomic.make 0
  let n_stall = Atomic.make 0
  let n_spawn = Atomic.make 0
  let armed () = Atomic.get enabled_flag

  let enable cfg =
    Atomic.set config cfg;
    Atomic.set n_task 0;
    Atomic.set n_steal 0;
    Atomic.set n_stall 0;
    Atomic.set n_spawn 0;
    Atomic.incr generation;
    Atomic.set enabled_flag true

  let disable () = Atomic.set enabled_flag false

  let counts () =
    {
      task_exns = Atomic.get n_task;
      steal_delays = Atomic.get n_steal;
      worker_stalls = Atomic.get n_stall;
      spawn_fails = Atomic.get n_spawn;
    }

  let total c = c.task_exns + c.steal_delays + c.worker_stalls + c.spawn_fails

  let rng_key : (int * Rpb_prim.Rng.t) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let my_rng () =
    let slot = Domain.DLS.get rng_key in
    let gen = Atomic.get generation in
    match !slot with
    | Some (g, rng) when g = gen -> rng
    | _ ->
      let cfg = Atomic.get config in
      let rng =
        Rpb_prim.Rng.create
          (Rpb_prim.Rng.hash64
             (cfg.seed lxor (((Domain.self () :> int) + 1) * 0x9E3779B9)))
      in
      slot := Some (gen, rng);
      rng

  let fire p = p > 0. && Rpb_prim.Rng.float (my_rng ()) 1.0 < p

  let delay cfg =
    if cfg.delay_us > 0 then Unix.sleepf (float_of_int cfg.delay_us *. 1e-6)

  (* Injection sites.  Callers gate each on [armed ()]. *)

  let task_site () =
    let cfg = Atomic.get config in
    if fire cfg.task_exn then begin
      let n = Atomic.fetch_and_add n_task 1 in
      raise (Injected (Printf.sprintf "task-exn #%d" n))
    end

  let steal_site () =
    let cfg = Atomic.get config in
    if fire cfg.steal_delay then begin
      Atomic.incr n_steal;
      delay cfg
    end

  let stall_site () =
    let cfg = Atomic.get config in
    if fire cfg.worker_stall then begin
      Atomic.incr n_stall;
      delay cfg
    end

  let spawn_site () =
    let cfg = Atomic.get config in
    if fire cfg.spawn_fail then begin
      Atomic.incr n_spawn;
      raise (Injected "spawn-fail")
    end
end

(* ------------------------------------------------------------------ *)
(* Shared timer wheel.

   One process-wide timer domain services every [run ?deadline] watchdog (and
   any other scheduled callback) instead of each deadline-bearing run spawning
   a [Domain] of its own — the difference between "a CI harness with one
   deadline per run" and "a server with thousands of per-request deadlines".
   The domain is spawned lazily on the first [schedule], parks on a condition
   variable while no timer is pending, and polls at most every [poll_s] while
   one is (OCaml's [Condition] has no timed wait), which matches the 10 ms
   granularity the per-run watchdog domains used to have.

   [cancel] is synchronous: if the entry's callback is mid-flight on the
   timer domain, [cancel] blocks until it completes — so after [cancel]
   returns the callback either ran entirely or never will, and a watchdog can
   never fire into a later run's scope.  Callback exceptions are swallowed
   (a timer must never kill the timer domain); callbacks should be tiny. *)

module Timer = struct
  type handle = {
    fire_at : float;
    seq : int;
    mutable cancelled : bool;  (** guarded by [mutex] *)
    cb : unit -> unit;
  }

  let mutex = Mutex.create ()
  let cond = Condition.create ()

  (* Pending entries sorted by [fire_at] (ties by [seq]).  Insertion is
     O(pending); the serving layer keeps at most a handful of deadlines
     armed at once (requests are admitted into one executing run at a time),
     so a sorted list beats a heap's constant factor here. *)
  let pending : handle list ref = ref []
  let executing : handle option ref = ref None
  let seq_counter = ref 0
  let stop_flag = ref false
  let domain : unit Domain.t option ref = ref None
  let domains_spawned_count = Atomic.make 0
  let at_exit_registered = ref false
  let poll_s = 0.005

  let domains_spawned () = Atomic.get domains_spawned_count

  let rec timer_loop () =
    Mutex.lock mutex;
    let rec step () =
      if !stop_flag then Mutex.unlock mutex
      else
        match !pending with
        | [] ->
          Condition.wait cond mutex;
          step ()
        | e :: rest ->
          if e.cancelled then begin
            pending := rest;
            step ()
          end
          else begin
            let now = Unix.gettimeofday () in
            if e.fire_at <= now then begin
              pending := rest;
              executing := Some e;
              Mutex.unlock mutex;
              (try e.cb () with _ -> ());
              Mutex.lock mutex;
              executing := None;
              (* Wake a [cancel] blocked on this entry (and the loop's own
                 empty-list wait shares the condition; spurious wakeups are
                 re-checked). *)
              Condition.broadcast cond;
              step ()
            end
            else begin
              (* No timed [Condition.wait] in the stdlib: release the lock
                 and nap until the deadline or the next poll tick. *)
              let nap = Float.min (e.fire_at -. now) poll_s in
              Mutex.unlock mutex;
              Unix.sleepf nap;
              timer_loop ()
            end
          end
    in
    step ()

  (* Must be called with [mutex] held. *)
  let ensure_domain () =
    match !domain with
    | Some _ -> ()
    | None ->
      stop_flag := false;
      Atomic.incr domains_spawned_count;
      domain := Some (Domain.spawn timer_loop);
      if not !at_exit_registered then begin
        at_exit_registered := true;
        (* The timer domain must not outlive the program: stop and join it
           at exit so the runtime never waits on a parked domain. *)
        at_exit (fun () ->
            Mutex.lock mutex;
            let d = !domain in
            stop_flag := true;
            domain := None;
            Condition.broadcast cond;
            Mutex.unlock mutex;
            Option.iter Domain.join d)
      end

  let schedule ~delay_s cb =
    if delay_s < 0. then invalid_arg "Pool.Timer.schedule: negative delay";
    Mutex.lock mutex;
    ensure_domain ();
    incr seq_counter;
    let e =
      {
        fire_at = Unix.gettimeofday () +. delay_s;
        seq = !seq_counter;
        cancelled = false;
        cb;
      }
    in
    let rec insert = function
      | [] -> [ e ]
      | x :: _ as l
        when e.fire_at < x.fire_at
             || (e.fire_at = x.fire_at && e.seq < x.seq) ->
        e :: l
      | x :: rest -> x :: insert rest
    in
    pending := insert !pending;
    Condition.broadcast cond;
    Mutex.unlock mutex;
    e

  let cancel e =
    Mutex.lock mutex;
    e.cancelled <- true;
    pending := List.filter (fun x -> x != e) !pending;
    (* If the callback is running right now, wait it out: after [cancel]
       returns the callback must not be able to observe any later state. *)
    while (match !executing with Some x -> x == e | None -> false) do
      Condition.wait cond mutex
    done;
    Mutex.unlock mutex

  let shutdown () =
    Mutex.lock mutex;
    let d = !domain in
    stop_flag := true;
    domain := None;
    (* Abandon pending timers for real: a domain respawned by a later
       [schedule] must not fire entries armed before the shutdown. *)
    List.iter (fun e -> e.cancelled <- true) !pending;
    pending := [];
    Condition.broadcast cond;
    Mutex.unlock mutex;
    Option.iter Domain.join d

  let pending_count () =
    Mutex.lock mutex;
    let n = List.length !pending in
    Mutex.unlock mutex;
    n
end

(* ------------------------------------------------------------------ *)

(* Eventcount-style wakeup: pushers bump [wake_version] then broadcast if any
   worker registered as sleeping; sleepers re-check the version under the
   mutex before waiting, so no wakeup can be missed. *)
let signal_work pool =
  Atomic.incr pool.wake_version;
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.idle_mutex;
    Condition.broadcast pool.idle_cond;
    Mutex.unlock pool.idle_mutex
  end

let push_local pool idx task =
  let dq = pool.deques.(idx) in
  Ws_deque.push dq task;
  let c = pool.counters.(idx) in
  let depth = Ws_deque.size dq in
  if depth > c.(c_max_depth) then c.(c_max_depth) <- depth;
  signal_work pool

(* One attempt to find work: own deque first (depth-first order), then one
   sweep over the victims starting at a uniform-random worker, stealing one
   task per successful visit. *)
let try_find_task pool my_idx rng =
  match Ws_deque.pop pool.deques.(my_idx) with
  | Some _ as t -> t
  | None ->
    let n = pool.num_workers in
    let c = pool.counters.(my_idx) in
    let start = if n <= 1 then 0 else Rpb_prim.Rng.int rng n in
    let rec sweep k =
      if k >= n then None
      else begin
        let v = (start + k) mod n in
        if v = my_idx then sweep (k + 1)
        else
          match Ws_deque.steal pool.deques.(v) with
          | Some _ as t ->
            c.(c_steals_ok) <- c.(c_steals_ok) + 1;
            if Recorder.enabled () then
              Recorder.steal_event ~thief:my_idx ~victim:v;
            if Fault.armed () then Fault.steal_site ();
            t
          | None ->
            c.(c_steals_failed) <- c.(c_steals_failed) + 1;
            sweep (k + 1)
      end
    in
    sweep 0

let execute pool idx task =
  let c = pool.counters.(idx) in
  c.(c_tasks) <- c.(c_tasks) + 1;
  if Fault.armed () then Fault.stall_site ();
  task ()

let worker_loop pool idx =
  Domain.DLS.get slot_key := Some (pool.id, idx);
  let rng = Rpb_prim.Rng.create (0x5EED + idx) in
  let c = pool.counters.(idx) in
  let rec loop spins =
    if Atomic.get pool.shutdown_flag then ()
    else
      match try_find_task pool idx rng with
      | Some task ->
        execute pool idx task;
        loop spin_budget
      | None ->
        if spins > 0 then begin
          Domain.cpu_relax ();
          loop (spins - 1)
        end
        else begin
          (* Sleep until new work is signalled (or shutdown). *)
          c.(c_idle) <- c.(c_idle) + 1;
          let idle_t0 =
            if Recorder.enabled () then Recorder.now_ns () else 0
          in
          let seen = Atomic.get pool.wake_version in
          Mutex.lock pool.idle_mutex;
          Atomic.incr pool.sleepers;
          if Atomic.get pool.wake_version = seen
             && not (Atomic.get pool.shutdown_flag)
          then Condition.wait pool.idle_cond pool.idle_mutex;
          Atomic.decr pool.sleepers;
          Mutex.unlock pool.idle_mutex;
          if idle_t0 <> 0 && Recorder.enabled () then
            Recorder.idle_event ~w:idx ~begin_ns:idle_t0;
          loop spin_budget
        end
  in
  loop spin_budget

(* Spawning a domain can fail (OS thread limits, injected faults): retry a
   few times with capped backoff, and report a permanent failure as [None] so
   [make_pool] can degrade to fewer workers instead of crashing. *)
let spawn_attempts = 3

let spawn_worker pool idx =
  let rec attempt k backoff_s =
    match
      if Fault.armed () then Fault.spawn_site ();
      Domain.spawn (fun () -> worker_loop pool idx)
    with
    | d -> Some d
    | exception _ ->
      if k >= spawn_attempts then None
      else begin
        Unix.sleepf backoff_s;
        attempt (k + 1) (Float.min (backoff_s *. 4.) 0.05)
      end
  in
  attempt 1 0.001

let make_pool ~num_workers ~sched =
  if num_workers < 1 then invalid_arg "Pool.create: num_workers must be >= 1";
  let pool =
    {
      id = Atomic.fetch_and_add next_pool_id 1;
      num_workers;
      requested_workers = num_workers;
      sched;
      deques = Array.init num_workers (fun _ -> Ws_deque.create ());
      domains = [||];
      idle_mutex = Mutex.create ();
      idle_cond = Condition.create ();
      wake_version = Atomic.make 0;
      sleepers = Atomic.make 0;
      shutdown_flag = Atomic.make false;
      running = Atomic.make false;
      scope = Atomic.make (new_scope ());
      counters = Array.init num_workers (fun _ -> Array.make counter_slots 0);
    }
  in
  (* Graceful degradation: stop at the first worker whose spawn keeps
     failing, shrink the pool to the workers that exist (indices stay
     contiguous), and let [Stats] report actual vs requested. *)
  let domains = ref [] in
  (try
     for i = 1 to num_workers - 1 do
       match spawn_worker pool i with
       | Some d -> domains := d :: !domains
       | None -> raise Exit
     done
   with Exit -> ());
  pool.domains <- Array.of_list (List.rev !domains);
  pool.num_workers <- Array.length pool.domains + 1;
  pool

let create ~num_workers () = make_pool ~num_workers ~sched:Ws

let create_deterministic ?(seed = 0) ?(shuffle = true) () =
  make_pool ~num_workers:1
    ~sched:(Seq_det { rng = Rpb_prim.Rng.create (0xDE7 lxor seed); shuffle })

let deterministic pool =
  match pool.sched with Ws -> false | Seq_det _ -> true

(* Resolve every task still sitting in a queue by running its wrapper: with
   [shutdown_flag] set the wrapper fails the promise with [Shutdown] (and with
   a cancelled scope, with [Cancelled]) without touching user code.  Called
   after the worker domains have been joined, so the queues are no longer
   being consumed concurrently — but [Ws_deque.steal] makes the sweep safe
   even against a racing producer. *)
let fail_pending pool =
  Array.iter
    (fun dq ->
      let rec go () =
        match Ws_deque.steal dq with
        | Some task ->
          task ();
          go ()
        | None -> ()
      in
      go ())
    pool.deques

let shutdown pool =
  if not (Atomic.exchange pool.shutdown_flag true) then begin
    Mutex.lock pool.idle_mutex;
    Condition.broadcast pool.idle_cond;
    Mutex.unlock pool.idle_mutex;
    Array.iter Domain.join pool.domains;
    pool.domains <- [||];
    (* Don't strand pending promises: fail them so a concurrent [await]
       raises [Shutdown] instead of polling forever. *)
    fail_pending pool
  end

let check_alive pool = if Atomic.get pool.shutdown_flag then raise Shutdown

(* The task wrapper.  A task is a [join] branch (and through [join] every
   [parallel_for] subtree): it publishes its exception to the scope before
   resolving the promise. *)
let make_task pool scope f p () =
  (if Atomic.get pool.shutdown_flag then Atomic.set p (Raised Shutdown)
   else if Atomic.get scope.cancel_flag then
     (* The scope failed before this task started: abandon it. *)
     Atomic.set p (Raised Cancelled)
   else begin
     (* Task bodies execute at depth >= 1: an exception unwinding inside a
        stolen task must not be mistaken for delivery to the run body. *)
     let d = Domain.DLS.get depth_key in
     incr d;
     (match
        if Fault.armed () then Fault.task_site ();
        f ()
      with
      | x ->
        decr d;
        Atomic.set p (Done x)
      | exception e ->
        decr d;
        let bt = Printexc.get_raw_backtrace () in
        scope_cancel scope e bt;
        Atomic.set p (Raised e))
   end);
  Atomic.decr scope.outstanding

let spawn_task pool idx scope f =
  let p = Atomic.make Pending in
  Atomic.incr scope.outstanding;
  push_local pool idx (make_task pool scope f p);
  p

(* Helping wait on worker [idx]: while the promise is pending, execute other
   pool tasks.  A worker never blocks here, so nested fork-join cannot
   deadlock. *)
let await pool idx p =
  let rng = Rpb_prim.Rng.create (0xA3A17 + idx) in
  let c = pool.counters.(idx) in
  let rec help spins =
    match Atomic.get p with
    | Pending ->
      (match try_find_task pool idx rng with
       | Some task ->
         execute pool idx task;
         help spin_budget
       | None ->
         if spins > 0 then begin
           Domain.cpu_relax ();
           help (spins - 1)
         end
         else begin
           (* The task is running on another worker; yield the core. *)
           c.(c_idle) <- c.(c_idle) + 1;
           let idle_t0 =
             if Recorder.enabled () then Recorder.now_ns () else 0
           in
           Unix.sleepf idle_sleep_s;
           if idle_t0 <> 0 && Recorder.enabled () then
             Recorder.idle_event ~w:idx ~begin_ns:idle_t0;
           help spin_budget
         end)
    | Done _ | Raised _ -> ()
  in
  help spin_budget;
  match Atomic.get p with
  | Done x -> x
  | Raised e -> raise e
  | Pending -> assert false

(* Wait until every task spawned under [scope] has resolved its promise,
   helping to execute queued ones — each observes [cancel_flag] and resolves
   as [Cancelled] without running user code.  Unbounded by default (a stuck
   task means caller state is still referenced and returning would be
   unsound); when the run had a deadline we give up after it and warn rather
   than hang. *)
let drain_scope pool scope =
  if Atomic.get scope.outstanding > 0 then begin
    let idx = match my_index pool with Some i -> i | None -> 0 in
    let rng = Rpb_prim.Rng.create (0xD4A1 + idx) in
    let give_up =
      match scope.deadline_s with
      | None -> Float.infinity
      | Some d -> Unix.gettimeofday () +. d +. 0.1
    in
    let rec wait delay =
      if Atomic.get scope.outstanding > 0 then
        if Unix.gettimeofday () > give_up then
          Printf.eprintf
            "rpb_pool: warning: giving up drain with %d task(s) of a failed \
             scope still outstanding\n\
             %!"
            (Atomic.get scope.outstanding)
        else begin
          match try_find_task pool idx rng with
          | Some task ->
            execute pool idx task;
            wait backoff_min_s
          | None ->
            Unix.sleepf delay;
            wait (Float.min (delay *. 2.) backoff_max_s)
        end
    in
    wait backoff_min_s
  end

(* A parallel-construct frame.  Tracks per-domain nesting; when a failure
   finishes unwinding out of the outermost construct — the next stop is user
   code in the run body — the scope's outstanding tasks are drained and a
   fresh scope installed before re-raising.  So by the time user code can
   observe the exception (a) no task of the failed scope is still running
   against live state, and (b) catching it leaves the pool's current run
   healthy: subsequent parallel calls work.  [Cancelled] (the splitters'
   relay signal) is unwrapped to the first recorded failure here. *)
let with_construct pool k =
  let scope = Atomic.get pool.scope in
  let d = Domain.DLS.get depth_key in
  incr d;
  match k scope with
  | x ->
    decr d;
    x
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    decr d;
    if !d = 0 then begin
      drain_scope pool scope;
      let e, bt =
        match e with
        | Cancelled -> (
          match Atomic.get scope.first_exn with
          | Some (e0, bt0) -> (e0, bt0)
          | None -> (e, bt))
        | _ -> (e, bt)
      in
      Atomic.set pool.scope (new_scope ?deadline:scope.deadline_s ());
      Printexc.raise_with_backtrace e bt
    end
    else Printexc.raise_with_backtrace e bt

(* The work-stealing [join] engine, help-first: [g] is pushed onto the
   worker's deque and [f] runs inline, so the worker keeps descending the
   left spine while thieves pick up the right branches. *)
let ws_join pool scope my_idx f g =
  if not (Recorder.enabled ()) then begin
    let ps = spawn_task pool my_idx scope g in
    match f () with
    | a ->
      let b = await pool my_idx ps in
      (a, b)
    | exception ei ->
      let bt = Printexc.get_raw_backtrace () in
      scope_cancel scope ei bt;
      (* The sibling may already be running on another worker and
         referencing caller state: wait for its promise to resolve
         (it is skipped if it has not started) before unwinding, so
         the exception never races its own branch's stack frames. *)
      (match await pool my_idx ps with _ -> () | exception _ -> ());
      Printexc.raise_with_backtrace ei bt
  end
  else begin
    (* Recording: this join becomes a construct in the recorded
       series-parallel DAG.  The forking strand's segment is closed
       at the fork, branch 0 (the inline branch) is tagged until it
       returns, the spawned branch is tagged by the [run_branch]
       wrapper wherever it executes, and no segment is open across
       [await] — helping or waiting time is never charged as
       work. *)
    let fk = Recorder.fork ~w:my_idx in
    let id, _, _ = fk in
    let ps =
      spawn_task pool my_idx scope (Recorder.run_branch pool id g)
    in
    Recorder.branch_open ~w:my_idx fk;
    match f () with
    | a ->
      Recorder.seg_close_cur ~w:my_idx;
      let b = await pool my_idx ps in
      Recorder.join_done ~w:my_idx fk;
      (a, b)
    | exception ei ->
      let bt = Printexc.get_raw_backtrace () in
      Recorder.seg_close_cur ~w:my_idx;
      scope_cancel scope ei bt;
      (match await pool my_idx ps with _ -> () | exception _ -> ());
      Recorder.join_done ~w:my_idx fk;
      Printexc.raise_with_backtrace ei bt
  end

let join pool f g =
  match pool.sched with
  | Seq_det { rng; shuffle } ->
    (* One domain: run both branches here, in a seeded order.  Flipping the
       order is a legal fork-join schedule (the branches are unordered), so a
       result that depends on it is order-sensitive by construction. *)
    if shuffle && Rpb_prim.Rng.bool rng then begin
      let b = g () in
      let a = f () in
      (a, b)
    end
    else begin
      let a = f () in
      let b = g () in
      (a, b)
    end
  | Ws ->
    (match my_index pool with
     | None ->
       let a = f () in
       let b = g () in
       (a, b)
     | Some my_idx ->
       with_construct pool (fun scope ->
           (* Abandon early: a failed sibling anywhere in the scope stops
              this subtree before it forks more work.  One atomic load when
              healthy (plus one for the flight-recorder switch). *)
           if Atomic.get scope.cancel_flag then scope_raise scope;
           ws_join pool scope my_idx f g))

(* A call site that passes no [?grain] gets ~[leaves_per_worker] leaves per
   worker. *)
let default_grain (pool : pool) n =
  max 1 (n / (leaves_per_worker * pool.num_workers))

(* Leaf decomposition used by the deterministic executor: contiguous chunks
   of at most [grain] indices, visited in a seeded random order but ascending
   within each leaf — the same guarantee the work-stealing tree gives
   (in-order leaves, unordered across leaves). *)
let seq_det_for ~rng ~grain ~start ~finish ~body =
  let n = finish - start in
  let leaves = Rpb_prim.Util.ceil_div n grain in
  let order = Rpb_prim.Rng.permutation rng leaves in
  Array.iter
    (fun l ->
      let lo = start + (l * grain) in
      let hi = min finish (lo + grain) in
      for i = lo to hi - 1 do
        body i
      done)
    order

let parallel_for ?grain ~start ~finish ~body pool =
  let n = finish - start in
  if n > 0 then begin
    let grain =
      match grain with Some g -> max 1 g | None -> default_grain pool n
    in
    match pool.sched with
    | Seq_det { rng; shuffle = true } ->
      seq_det_for ~rng ~grain ~start ~finish ~body
    | Seq_det { shuffle = false; _ } ->
      for i = start to finish - 1 do
        body i
      done
    | Ws ->
    if pool.num_workers = 1 || my_index pool = None then
      for i = start to finish - 1 do
        body i
      done
    else
      with_construct pool (fun scope ->
          let rec go lo hi =
            (* Check before descending: a failed scope stops splitting (and
               skips this whole subtree) instead of running siblings of the
               failed leaf to completion. *)
            if Atomic.get scope.cancel_flag then scope_raise scope;
            if hi - lo <= grain then
              for i = lo to hi - 1 do
                body i
              done
            else begin
              let mid = lo + ((hi - lo) / 2) in
              let ((), ()) =
                join pool (fun () -> go lo mid) (fun () -> go mid hi)
              in
              ()
            end
          in
          go start finish)
  end

let parallel_for_reduce ?grain ~start ~finish ~body ~combine ~init pool =
  let n = finish - start in
  if n <= 0 then init
  else begin
    let grain =
      match grain with Some g -> max 1 g | None -> default_grain pool n
    in
    let leaf lo hi =
      let acc = ref init in
      for i = lo to hi - 1 do
        acc := combine !acc (body i)
      done;
      !acc
    in
    match pool.sched with
    | Seq_det { rng; shuffle = true } ->
      (* Evaluate the leaves in a seeded shuffled order, but combine them in
         index order: execution timing moves, the (associative) combine tree
         does not — exactly what a parallel schedule may do. *)
      let leaves = Rpb_prim.Util.ceil_div n grain in
      let results = Array.make leaves init in
      let order = Rpb_prim.Rng.permutation rng leaves in
      Array.iter
        (fun l ->
          let lo = start + (l * grain) in
          let hi = min finish (lo + grain) in
          results.(l) <- leaf lo hi)
        order;
      Array.fold_left combine init results
    | Seq_det { shuffle = false; _ } -> leaf start finish
    | Ws ->
    if pool.num_workers = 1 || my_index pool = None then leaf start finish
    else
      with_construct pool (fun scope ->
          let rec go lo hi =
            if Atomic.get scope.cancel_flag then scope_raise scope;
            if hi - lo <= grain then leaf lo hi
            else begin
              let mid = lo + ((hi - lo) / 2) in
              let a, b =
                join pool (fun () -> go lo mid) (fun () -> go mid hi)
              in
              combine a b
            end
          in
          go start finish)
  end

let parallel_chunks ?grain ~start ~finish ~body pool =
  let n = finish - start in
  if n > 0 then begin
    let grain =
      match grain with Some g -> max 1 g | None -> default_grain pool n
    in
    let chunks = Rpb_prim.Util.ceil_div n grain in
    parallel_for ~grain:1 ~start:0 ~finish:chunks
      ~body:(fun c ->
        let lo = start + (c * grain) in
        let hi = min finish (lo + grain) in
        body lo hi)
      pool
  end

(* Deadline watchdog: one [Timer] entry on the shared timer wheel (not a
   dedicated domain — a server multiplexing thousands of deadline-bearing
   runs must not spawn a [Domain] apiece).  At expiry it cancels the run's
   *current* scope — construct recovery may have replaced the one installed
   at [run] entry — with [Stalled] carrying a per-worker counter dump, and
   wakes any sleeping workers so the flag is observed.  Running tasks are
   not interrupted (OCaml has no asynchronous cancellation); splitters and
   fresh tasks observe the flag at their next check, which is what turns a
   hang into a structured failure.  [finish] cancels the entry *before*
   installing a fresh scope, and [Timer.cancel] waits out a mid-flight
   callback, so a watchdog can never fire into a later run's scope. *)
let start_watchdog pool deadline_s =
  Timer.schedule ~delay_s:deadline_s (fun () ->
      let dump = Stats.to_string (Stats.capture pool) in
      scope_cancel
        (Atomic.get pool.scope)
        (Stalled
           (Printf.sprintf
              "Pool.run exceeded its %.3fs deadline; per-worker counters:\n%s"
              deadline_s dump))
        (Printexc.get_callstack 0);
      signal_work pool)

(* External cooperative cancellation: flag the pool's current scope with
   [exn] exactly as the deadline watchdog does, so splitters and
   not-yet-started tasks of the active run observe it at their next check
   and [run] re-raises [exn].  Best-effort by design — a no-op when no run
   is active (the idle scope is replaced at the next [run] entry), and
   tasks already executing are not interrupted.  This is the primitive the
   serving layer uses when a client disconnects mid-request. *)
let cancel_run pool exn =
  scope_cancel (Atomic.get pool.scope) exn (Printexc.get_callstack 0);
  signal_work pool

(* The poll of a task that runs for long: it checks the flag that splitters
   and task starts check, so a cancelled or overdue run stops it too.  The
   idle scope between runs may carry a stale [cancel_run]; it is ignored. *)
let check_cancel pool =
  let scope = Atomic.get pool.scope in
  if Atomic.get scope.cancel_flag && Atomic.get pool.running then
    scope_raise scope

let run ?deadline pool f =
  check_alive pool;
  (match my_index pool with
   | Some _ -> invalid_arg "Pool.run: nested run on the same pool"
   | None -> ());
  (match deadline with
   | Some d when d <= 0. -> invalid_arg "Pool.run: deadline must be positive"
   | _ -> ());
  if Atomic.exchange pool.running true then
    invalid_arg "Pool.run: pool already has an active run";
  Atomic.set pool.scope (new_scope ?deadline ());
  let slot = Domain.DLS.get slot_key in
  (* A run of this pool from inside a run of another one (a task that
     creates a transient pool) must hand the outer pool its slot back. *)
  let outer = !slot in
  slot := Some (pool.id, 0);
  let watchdog = Option.map (start_watchdog pool) deadline in
  (* Leave no task of this run behind: whether [f] returns or raises, every
     outstanding promise of the run's current scope is resolved before
     control goes back to the caller (construct recovery already drained any
     earlier failed scope), so pool tasks never reference a dead stack
     frame. *)
  let finish () =
    let scope = Atomic.get pool.scope in
    drain_scope pool scope;
    (* Cancel before installing a fresh scope: [Timer.cancel] waits out a
       callback already firing, so a late watchdog can only ever have hit
       this (finished) run's scope. *)
    Option.iter Timer.cancel watchdog;
    slot := outer;
    Atomic.set pool.scope (new_scope ());
    Atomic.set pool.running false;
    scope
  in
  match f () with
  | x ->
    (* The body completed, but the watchdog may have flagged the scope (a
       deadline overrun spent in un-cancellable work): surface [Stalled]
       rather than pretend the deadline held. *)
    let scope = finish () in
    if Atomic.get scope.cancel_flag then scope_raise scope;
    x
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    let scope = Atomic.get pool.scope in
    (* Flag the scope so queued tasks resolve as [Cancelled] instead of
       executing against a dying run, then drain them. *)
    scope_cancel scope e bt;
    ignore (finish ());
    (match e with
     | Cancelled ->
       (* Relay signal (e.g. [await] of a cancelled promise at the run-body
          level): unwrap to the first recorded failure. *)
       scope_raise scope
     | _ -> Printexc.raise_with_backtrace e bt)

let current_worker = my_index

(* Live scheduler gauge for the metrics plane: instantaneous per-worker
   deque depths (racy [Ws_deque.size] reads — a point-in-time occupancy
   sketch, not an invariant). *)
let deque_depths pool =
  Array.init pool.num_workers (fun i -> Ws_deque.size pool.deques.(i))
