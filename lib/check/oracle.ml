open Rpb_pool
open Rpb_core
open Rpb_benchmarks

type mismatch = { at : int; expected : int; actual : int }

type outcome = {
  bench : string;
  input : string;
  executor : string;
  mode : string;
  verified : bool;
  equal : bool;
  digest_len : int;
  mismatches : mismatch list;
  error : string option;
}

let max_reported_mismatches = 5

type report = {
  seed : int;
  threads : int;
  scale : int;
  outcomes : outcome list;
  shadow_ops : int;
  shadow_writes : int;
  shadow_races : Shadow.race list;
  canary_ok : bool;
}

(* Element-wise diff of two digests.  A length mismatch is encoded as the
   single pseudo-mismatch [{at = -1; expected = len_a; actual = len_b}]. *)
let diff_digests reference got =
  let la = Array.length reference and lb = Array.length got in
  if la <> lb then (false, [ { at = -1; expected = la; actual = lb } ])
  else begin
    let mismatches = ref [] in
    let count = ref 0 in
    for i = 0 to la - 1 do
      if reference.(i) <> got.(i) then begin
        if !count < max_reported_mismatches then
          mismatches :=
            { at = i; expected = reference.(i); actual = got.(i) }
            :: !mismatches;
        incr count
      end
    done;
    (!count = 0, List.rev !mismatches)
  end

let outcomes_of_entry pool ~executor ~scale (entry : Common.entry) =
  let input = List.hd entry.Common.inputs in
  Pool.run pool (fun () ->
      let prepared = entry.Common.prepare pool ~input ~scale in
      prepared.Common.run_seq ();
      let reference = prepared.Common.snapshot () in
      List.map
        (fun mode ->
          let base =
            {
              bench = entry.Common.name;
              input;
              executor;
              mode = Mode.name mode;
              verified = false;
              equal = false;
              digest_len = Array.length reference;
              mismatches = [];
              error = None;
            }
          in
          match prepared.Common.run_par mode with
          | () ->
            let verified = prepared.Common.verify () in
            let equal, mismatches =
              diff_digests reference (prepared.Common.snapshot ())
            in
            { base with verified; equal; mismatches }
          | exception e -> { base with error = Some (Printexc.to_string e) })
        Mode.all)

let with_pool ~make f =
  let pool = make () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Shadow self-check: valid seeded inputs must be race-free (no false
   positives), one injected duplicate must be caught (no silent false
   negatives).                                                          *)

type shadow_result = {
  s_ops : int;
  s_writes : int;
  s_races : Shadow.race list;
  s_canary : bool;
}

let random_monotone_splits rng ~n ~pieces =
  let splits = Array.init (pieces + 1) (fun _ -> Rpb_prim.Rng.int rng (n + 1)) in
  Array.sort compare splits;
  splits

let shadow_self_check ~threads ~seed =
  with_pool ~make:(fun () -> Pool.create ~num_workers:threads ()) @@ fun pool ->
  Pool.run pool @@ fun () ->
  Shadow.with_instrumentation true @@ fun () ->
  let rng = Rpb_prim.Rng.create ((seed * 7919) + 17) in
  let ops = ref 0 and writes = ref 0 and races = ref [] in
  let absorb out =
    incr ops;
    writes := !writes + Shadow.write_count out;
    races := List.rev_append (Shadow.races out) !races
  in
  for _round = 1 to 4 do
    (* SngInd: a valid permutation through all four modes. *)
    let n = 2048 + Rpb_prim.Rng.int rng 2048 in
    let offsets = Rpb_prim.Rng.permutation rng n in
    let src = Array.init n Fun.id in
    List.iter
      (fun mode ->
        let out = Shadow.create ~pool (Array.make n (-1)) in
        Instrument.scatter mode pool ~out ~offsets ~src;
        absorb out)
      Scatter.all_modes;
    (* RngInd: valid (sorted) split points. *)
    let pieces = 1 + Rpb_prim.Rng.int rng 64 in
    let splits = random_monotone_splits rng ~n ~pieces in
    let out = Shadow.create ~pool (Array.make n 0) in
    Instrument.fill_chunks_ind pool ~out ~offsets:splits ~f:(fun _i j -> j);
    absorb out
  done;
  (* Canary: exactly one duplicated offset, hidden at the far end. *)
  let n = 1024 in
  let offsets = Rpb_prim.Rng.permutation rng n in
  offsets.(n - 1) <- offsets.(0);
  let out = Shadow.create ~pool (Array.make n 0) in
  Instrument.unchecked pool ~out ~offsets ~src:(Array.init n Fun.id);
  let canary =
    List.exists
      (fun (r : Shadow.race) ->
        r.Shadow.index = offsets.(0)
        && (min r.Shadow.first_src r.Shadow.second_src,
            max r.Shadow.first_src r.Shadow.second_src)
           = (0, n - 1))
      (Shadow.races out)
  in
  { s_ops = !ops; s_writes = !writes; s_races = List.rev !races; s_canary = canary }

(* ------------------------------------------------------------------ *)

let run ?(threads = 4) ?(scale = 0) ?bench ?(policy = Pool.Policy.default)
    ~seed () =
  let entries =
    match bench with
    | None -> Registry.all
    | Some name -> (
      match Registry.find name with
      | Some e -> [ e ]
      | None -> invalid_arg (Printf.sprintf "Oracle.run: unknown benchmark %s" name))
  in
  (* The deterministic executors have no scheduler to parameterize; only the
     real pool runs under [policy]. *)
  let executors =
    [
      ("seq", fun () -> Pool.create_deterministic ~seed ~shuffle:false ());
      ("shuffled", fun () -> Pool.create_deterministic ~seed ~shuffle:true ());
      ("pool", fun () -> Pool.create ~policy ~num_workers:threads ());
    ]
  in
  let outcomes =
    List.concat_map
      (fun entry ->
        List.concat_map
          (fun (executor, make) ->
            with_pool ~make (fun pool ->
                outcomes_of_entry pool ~executor ~scale entry))
          executors)
      entries
  in
  let shadow = shadow_self_check ~threads ~seed in
  {
    seed;
    threads;
    scale;
    outcomes;
    shadow_ops = shadow.s_ops;
    shadow_writes = shadow.s_writes;
    shadow_races = shadow.s_races;
    canary_ok = shadow.s_canary;
  }

let outcome_ok o = o.verified && o.equal && o.error = None

let ok r =
  List.for_all outcome_ok r.outcomes && r.shadow_races = [] && r.canary_ok

let summary r =
  let b = Buffer.create 512 in
  let total = List.length r.outcomes in
  let bad = List.filter (fun o -> not (outcome_ok o)) r.outcomes in
  Buffer.add_string b
    (Printf.sprintf
       "oracle: %d configurations (%d benchmarks x 3 executors x %d modes), \
        %d failing\n"
       total
       (total / (3 * List.length Mode.all))
       (List.length Mode.all) (List.length bad));
  List.iter
    (fun o ->
      Buffer.add_string b
        (Printf.sprintf "  FAIL %s/%s executor=%s mode=%s%s%s%s\n" o.bench
           o.input o.executor o.mode
           (if o.verified then "" else " [verify failed]")
           (match o.error with Some e -> " [raised " ^ e ^ "]" | None -> "")
           (match o.mismatches with
            | [] -> if o.equal then "" else " [digest diff]"
            | { at = -1; expected; actual } :: _ ->
              Printf.sprintf " [digest length %d vs %d]" expected actual
            | { at; expected; actual } :: _ ->
              Printf.sprintf " [first diff at %d: %d vs %d]" at expected actual)))
    bad;
  Buffer.add_string b
    (Printf.sprintf
       "shadow: %d instrumented ops, %d writes, %d races on valid inputs; \
        canary (injected duplicate) %s\n"
       r.shadow_ops r.shadow_writes
       (List.length r.shadow_races)
       (if r.canary_ok then "detected" else "MISSED"));
  List.iter
    (fun race ->
      Buffer.add_string b
        (Printf.sprintf "  FALSE POSITIVE %s\n" (Shadow.race_to_string race)))
    r.shadow_races;
  Buffer.add_string b
    (Printf.sprintf "verdict: %s\n" (if ok r then "OK" else "FAIL"));
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let mismatch_to_json (m : mismatch) =
  Bench_json.Obj
    [ ("at", Bench_json.Int m.at);
      ("expected", Bench_json.Int m.expected);
      ("actual", Bench_json.Int m.actual) ]

let outcome_to_json o =
  Bench_json.Obj
    [
      ("bench", Bench_json.Str o.bench);
      ("input", Bench_json.Str o.input);
      ("executor", Bench_json.Str o.executor);
      ("mode", Bench_json.Str o.mode);
      ("verified", Bench_json.Bool o.verified);
      ("equal", Bench_json.Bool o.equal);
      ("digest_len", Bench_json.Int o.digest_len);
      ("mismatches", Bench_json.List (List.map mismatch_to_json o.mismatches));
      ( "error",
        match o.error with
        | None -> Bench_json.Null
        | Some e -> Bench_json.Str e );
    ]

let race_to_json (r : Shadow.race) =
  Bench_json.Obj
    [
      ("index", Bench_json.Int r.Shadow.index);
      ("first_src", Bench_json.Int r.Shadow.first_src);
      ("first_task", Bench_json.Int r.Shadow.first_task);
      ("second_src", Bench_json.Int r.Shadow.second_src);
      ("second_task", Bench_json.Int r.Shadow.second_task);
    ]

let to_json r =
  Bench_json.Obj
    [
      ("schema_version", Bench_json.Int Bench_json.schema_version);
      ("kind", Bench_json.Str "check");
      ("seed", Bench_json.Int r.seed);
      ("threads", Bench_json.Int r.threads);
      ("scale", Bench_json.Int r.scale);
      ("ok", Bench_json.Bool (ok r));
      ("oracle", Bench_json.List (List.map outcome_to_json r.outcomes));
      ( "shadow",
        Bench_json.Obj
          [
            ("ops", Bench_json.Int r.shadow_ops);
            ("writes", Bench_json.Int r.shadow_writes);
            ("races", Bench_json.List (List.map race_to_json r.shadow_races));
            ("canary_ok", Bench_json.Bool r.canary_ok);
          ] );
    ]

let write_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Bench_json.to_string (to_json r));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Fault sweep: the oracle's extension from "detects races" to "survives
   faults".  Each benchmark runs under seeded [Pool.Fault] schedules; the
   invariant asserted is the failure-semantics contract — every faulted run
   either completes with the correct canonical digest, or raises a clean
   structured error within the deadline.  Never a hang (the [run ?deadline]
   watchdog converts one into [Pool.Stalled]), never a torn-but-successful
   result, and the pool stays reusable afterwards. *)

type fault_schedule = { sched_name : string; sched_cfg : Pool.Fault.config }

let fault_schedules =
  [
    (* Exceptions at task start: exercises structured cancellation, sibling
       abandonment and the drain guarantee. *)
    { sched_name = "task-exn";
      sched_cfg = { Pool.Fault.off with task_exn = 0.02 } };
    (* A slow, jittery scheduler: steal delays and worker stalls must never
       change any result, only timing. *)
    { sched_name = "slow-sched";
      sched_cfg =
        { Pool.Fault.off with
          steal_delay = 0.2;
          worker_stall = 0.05;
          delay_us = 200 } };
    (* Everything at once, plus spawn failures during [create]: the pool
       degrades to fewer workers and must still honor the contract. *)
    { sched_name = "mixed-degrade";
      sched_cfg =
        { Pool.Fault.off with
          task_exn = 0.01;
          steal_delay = 0.1;
          spawn_fail = 0.5 } };
  ]

type fault_outcome = {
  f_bench : string;
  f_input : string;
  f_schedule : string;
  f_mode : string;
  f_fault_seed : int;
  f_completed : bool;  (** [run_par] returned normally *)
  f_raised : string option;  (** the clean structured error otherwise *)
  f_stalled : bool;  (** the raise was the deadline watchdog's [Stalled] *)
  f_digest_equal : bool;  (** meaningful when [f_completed] *)
  f_verified : bool;  (** meaningful when [f_completed] *)
  f_pool_reusable : bool;  (** a post-fault sanity run succeeded *)
  f_injected : int;  (** injections fired in [create] and the faulted run *)
  f_workers : int;
  f_requested_workers : int;
  f_elapsed_s : float;
}

type fault_report = {
  fr_seed : int;
  fr_threads : int;
  fr_scale : int;
  fr_deadline : float;
  fr_outcomes : fault_outcome list;
}

let fault_outcome_ok o =
  (* The contract: a completed run must carry the right answer; a failed run
     must have raised (it did — that is how we classified it) and left the
     pool usable.  [Stalled] counts as a clean failure: the deadline turned
     a would-be hang into a structured error. *)
  if o.f_completed then o.f_digest_equal && o.f_verified && o.f_pool_reusable
  else o.f_raised <> None && o.f_pool_reusable

let sweep_one ~threads ~scale ~deadline ~fault_seed ~policy entry sched mode =
  let input = List.hd entry.Common.inputs in
  let cfg = { sched.sched_cfg with Pool.Fault.seed = fault_seed } in
  (* Spawn failures are only meaningful during [create]; arm them alone so
     preparation and the reference run stay clean. *)
  let spawn_armed = cfg.Pool.Fault.spawn_fail > 0. in
  if spawn_armed then
    Pool.Fault.enable
      { Pool.Fault.off with
        seed = fault_seed;
        spawn_fail = cfg.Pool.Fault.spawn_fail };
  let pool = Pool.create ~policy ~num_workers:threads () in
  (* The [enable] before the faulted run zeroes the counters: keep the spawn
     failures that fired in [create]. *)
  let create_injected =
    if spawn_armed then (Pool.Fault.counts ()).Pool.Fault.spawn_fails else 0
  in
  Pool.Fault.disable ();
  Fun.protect
    ~finally:(fun () ->
      Pool.Fault.disable ();
      Pool.shutdown pool)
  @@ fun () ->
  let prepared, reference =
    Pool.run pool (fun () ->
        let prepared = entry.Common.prepare pool ~input ~scale in
        prepared.Common.run_seq ();
        (prepared, prepared.Common.snapshot ()))
  in
  Pool.Fault.enable cfg;
  let t0 = Unix.gettimeofday () in
  let result =
    match Pool.run ~deadline pool (fun () -> prepared.Common.run_par mode) with
    | () -> Ok ()
    | exception e -> Error e
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Pool.Fault.disable ();
  let injected = create_injected + Pool.Fault.total (Pool.Fault.counts ()) in
  let stats = Pool.Stats.capture pool in
  (* Whatever happened, the pool must still work: a fresh run on the same
     pool computing a known reduction. *)
  let reusable () =
    match
      Pool.run pool (fun () ->
          Pool.parallel_for_reduce ~start:0 ~finish:1_000 ~body:Fun.id
            ~combine:( + ) ~init:0 pool)
    with
    | n -> n = 499_500
    | exception _ -> false
  in
  let base =
    {
      f_bench = entry.Common.name;
      f_input = input;
      f_schedule = sched.sched_name;
      f_mode = Mode.name mode;
      f_fault_seed = fault_seed;
      f_completed = false;
      f_raised = None;
      f_stalled = false;
      f_digest_equal = false;
      f_verified = false;
      f_pool_reusable = false;
      f_injected = injected;
      f_workers = stats.Pool.Stats.num_workers;
      f_requested_workers = stats.Pool.Stats.requested_workers;
      f_elapsed_s = elapsed;
    }
  in
  match result with
  | Ok () ->
    let verified, equal =
      Pool.run pool (fun () ->
          let v = prepared.Common.verify () in
          let equal, _ = diff_digests reference (prepared.Common.snapshot ()) in
          (v, equal))
    in
    { base with
      f_completed = true;
      f_verified = verified;
      f_digest_equal = equal;
      f_pool_reusable = reusable ();
    }
  | Error e ->
    { base with
      f_raised = Some (Printexc.to_string e);
      f_stalled = (match e with Pool.Stalled _ -> true | _ -> false);
      f_pool_reusable = reusable ();
    }

let fault_sweep ?(threads = 4) ?(scale = 0) ?(deadline = 30.) ?bench
    ?(policy = Pool.Policy.default) ~seed () =
  let entries =
    match bench with
    | None -> Registry.all
    | Some name -> (
      match Registry.find name with
      | Some e -> [ e ]
      | None ->
        invalid_arg (Printf.sprintf "Oracle.fault_sweep: unknown benchmark %s" name))
  in
  let modes = Array.of_list Mode.all in
  let outcomes =
    List.concat_map
      (fun entry ->
        List.mapi
          (fun k sched ->
            (* One distinct fault stream per (benchmark, schedule); rotate
               the mode so every schedule meets every spectrum point across
               the suite. *)
            let fault_seed =
              Rpb_prim.Rng.hash64
                (seed lxor Hashtbl.hash (entry.Common.name, k))
            in
            let mode = modes.(k mod Array.length modes) in
            sweep_one ~threads ~scale ~deadline ~fault_seed ~policy entry sched
              mode)
          fault_schedules)
      entries
  in
  {
    fr_seed = seed;
    fr_threads = threads;
    fr_scale = scale;
    fr_deadline = deadline;
    fr_outcomes = outcomes;
  }

let fault_ok r = List.for_all fault_outcome_ok r.fr_outcomes

let fault_summary r =
  let b = Buffer.create 512 in
  let total = List.length r.fr_outcomes in
  let completed = List.filter (fun o -> o.f_completed) r.fr_outcomes in
  let failed = List.filter (fun o -> not o.f_completed) r.fr_outcomes in
  let stalled = List.filter (fun o -> o.f_stalled) r.fr_outcomes in
  let injected =
    List.fold_left (fun acc o -> acc + o.f_injected) 0 r.fr_outcomes
  in
  let bad = List.filter (fun o -> not (fault_outcome_ok o)) r.fr_outcomes in
  Buffer.add_string b
    (Printf.sprintf
       "faults: %d runs (%d benchmarks x %d schedules), %d injections fired\n"
       total
       (total / List.length fault_schedules)
       (List.length fault_schedules) injected);
  Buffer.add_string b
    (Printf.sprintf
       "  %d completed with correct digests, %d failed cleanly (%d by \
        deadline), %d violations\n"
       (List.length completed) (List.length failed) (List.length stalled)
       (List.length bad));
  List.iter
    (fun o ->
      Buffer.add_string b
        (Printf.sprintf "  FAIL %s/%s schedule=%s mode=%s%s%s%s\n" o.f_bench
           o.f_input o.f_schedule o.f_mode
           (if o.f_completed && not o.f_digest_equal then " [torn digest]"
            else "")
           (if o.f_completed && not o.f_verified then " [verify failed]"
            else "")
           (if not o.f_pool_reusable then " [pool unusable afterwards]"
            else "")))
    bad;
  Buffer.add_string b
    (Printf.sprintf "verdict: %s\n" (if fault_ok r then "OK" else "FAIL"));
  Buffer.contents b

let fault_outcome_to_json o =
  Bench_json.Obj
    [
      ("bench", Bench_json.Str o.f_bench);
      ("input", Bench_json.Str o.f_input);
      ("schedule", Bench_json.Str o.f_schedule);
      ("mode", Bench_json.Str o.f_mode);
      ("fault_seed", Bench_json.Int o.f_fault_seed);
      ("completed", Bench_json.Bool o.f_completed);
      ( "raised",
        match o.f_raised with
        | None -> Bench_json.Null
        | Some e -> Bench_json.Str e );
      ("stalled", Bench_json.Bool o.f_stalled);
      ("digest_equal", Bench_json.Bool o.f_digest_equal);
      ("verified", Bench_json.Bool o.f_verified);
      ("pool_reusable", Bench_json.Bool o.f_pool_reusable);
      ("injected", Bench_json.Int o.f_injected);
      ("workers", Bench_json.Int o.f_workers);
      ("requested_workers", Bench_json.Int o.f_requested_workers);
      ("elapsed_s", Bench_json.Float o.f_elapsed_s);
      ("ok", Bench_json.Bool (fault_outcome_ok o));
    ]

let fault_to_json r =
  Bench_json.Obj
    [
      ("schema_version", Bench_json.Int Bench_json.schema_version);
      ("kind", Bench_json.Str "fault");
      ("seed", Bench_json.Int r.fr_seed);
      ("threads", Bench_json.Int r.fr_threads);
      ("scale", Bench_json.Int r.fr_scale);
      ("deadline_s", Bench_json.Float r.fr_deadline);
      ("ok", Bench_json.Bool (fault_ok r));
      ("runs", Bench_json.List (List.map fault_outcome_to_json r.fr_outcomes));
    ]

let write_fault_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Bench_json.to_string (fault_to_json r));
      output_char oc '\n')
