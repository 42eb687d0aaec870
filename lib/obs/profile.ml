module Pool = Rpb_pool.Pool
module J = Rpb_benchmarks.Bench_json
module Common = Rpb_benchmarks.Common
module Mode = Rpb_benchmarks.Mode
module Registry = Rpb_benchmarks.Registry

type report = {
  bench : string;
  input : string;
  size : string;
  mode : string;
  scale : int;
  threads : int;
  seed : int;
  elapsed_ns : float;
  verified : bool;
  workers : J.worker_stats list;
  metrics : Sp_dag.t;
}

let profile ?input ?(mode = Mode.Unsafe) ?ring_capacity ~bench ~threads ~scale
    ~seed () =
  match Registry.find bench with
  | None -> invalid_arg ("unknown benchmark " ^ bench)
  | Some e ->
    let input =
      match input with Some i -> i | None -> List.hd e.Common.inputs
    in
    (* Suite inputs are deterministically self-seeded; [seed] is provenance
       for the emitted document (and seeds [Random] for any future benchmark
       that consults it). *)
    Random.init seed;
    let pool = Pool.create ~num_workers:threads () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    Pool.run pool (fun () ->
        let prepared = e.Common.prepare pool ~input ~scale in
        let run () = prepared.Common.run_par mode in
        run ();
        (* warm-up, unrecorded *)
        let before = Pool.Stats.capture pool in
        Pool.Recorder.start ?ring_capacity ();
        let t0 = Rpb_prim.Timing.monotonic_ns () in
        Pool.Recorder.with_root run;
        let t1 = Rpb_prim.Timing.monotonic_ns () in
        let recording = Pool.Recorder.stop () in
        let after = Pool.Stats.capture pool in
        let verified = prepared.Common.verify () in
        {
          bench = e.Common.name;
          input;
          size = prepared.Common.size;
          mode = Mode.name mode;
          scale;
          threads = Pool.size pool;
          seed;
          elapsed_ns = float_of_int (t1 - t0);
          verified;
          workers = J.workers_of_pool_stats (Pool.Stats.diff ~before ~after);
          metrics = Sp_dag.analyze recording;
        })

(* ---------- human-readable report ---------- *)

let ns_str f =
  if f >= 1e9 then Printf.sprintf "%.3f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.3f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.3f us" (f /. 1e3)
  else Printf.sprintf "%.0f ns" f

let ins_str n = ns_str (float_of_int n)

let summary r =
  let m = r.metrics in
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "profile: %s input=%s (%s) mode=%s threads=%d scale=%d seed=%d\n"
    r.bench r.input r.size r.mode r.threads r.scale r.seed;
  pf "  elapsed               %s  [%s]\n" (ns_str r.elapsed_ns)
    (if r.verified then "verified" else "VERIFICATION FAILED");
  pf "  work (T1)             %s\n" (ins_str m.Sp_dag.work_ns);
  pf "  span (Tinf)           %s\n" (ins_str m.Sp_dag.span_ns);
  pf "  parallelism           %.2f\n" m.Sp_dag.parallelism;
  pf "  burdened span         %s\n" (ins_str m.Sp_dag.burdened_span_ns);
  pf "  burdened parallelism  %.2f\n" m.Sp_dag.burdened_parallelism;
  pf "  load imbalance        %.2f\n" (Sp_dag.load_imbalance m);
  pf "  constructs %d  tasks %d  steals %d  queue delay %s  idle %s\n"
    m.Sp_dag.constructs m.Sp_dag.tasks m.Sp_dag.steals
    (ins_str m.Sp_dag.queue_delay_ns) (ins_str m.Sp_dag.idle_ns);
  pf "  events %d  dropped %d%s\n" m.Sp_dag.events m.Sp_dag.dropped
    (if m.Sp_dag.dropped > 0 then "  (rings overflowed; metrics are partial)"
     else "");
  if m.Sp_dag.granularity <> [] then begin
    pf "\n  leaf granularity (log2 ns buckets):\n";
    let mx =
      List.fold_left (fun acc (_, n) -> max acc n) 1 m.Sp_dag.granularity
    in
    List.iter
      (fun (k, n) ->
        let bar = max 1 (n * 40 / mx) in
        pf "    [2^%-2d, 2^%-2d) ns  %-40s %d\n" k (k + 1) (String.make bar '#')
          n)
      m.Sp_dag.granularity
  end;
  if m.Sp_dag.phases <> [] then begin
    pf "\n  phases:\n";
    List.iter
      (fun (p : Sp_dag.phase) ->
        pf "    %-24s %6d x  total %s\n" p.Sp_dag.name p.Sp_dag.count
          (ins_str p.Sp_dag.total_ns))
      m.Sp_dag.phases
  end;
  if m.Sp_dag.per_worker <> [] then begin
    pf "\n  per worker:\n";
    (* minor_gc / major_gc are process-wide collection counts over each
       worker's own GC-sampling window (Sp_dag.worker), not the worker's own
       collections: the windows overlap, so the column must not be summed. *)
    pf "    %-4s %12s %12s %8s %8s %10s %10s\n" "w" "work" "idle" "steals"
      "tasks" "minor_gc" "major_gc";
    List.iter
      (fun (w : Sp_dag.worker) ->
        pf "    %-4d %12s %12s %8d %8d %10d %10d\n" w.Sp_dag.w
          (ins_str w.Sp_dag.work_ns) (ins_str w.Sp_dag.idle_ns)
          w.Sp_dag.steals w.Sp_dag.tasks w.Sp_dag.minor_collections
          w.Sp_dag.major_collections)
      m.Sp_dag.per_worker
  end;
  pf "\n  predicted speedup (burdened estimate .. DAG upper bound):\n";
  pf "    %-4s %-10s %s\n" "p" "burdened" "upper";
  for p = 1 to max 1 r.threads do
    pf "    %-4d %-10.2f %.2f\n" p
      (Sp_dag.predicted_speedup m p)
      (Float.min (float_of_int p) m.Sp_dag.parallelism)
  done;
  Buffer.contents b

(* ---------- JSON (Bench_json schema v2, kind "profile") ---------- *)

let worker_to_json (w : Sp_dag.worker) =
  J.Obj
    [
      ("id", J.Int w.Sp_dag.w);
      ("work_ns", J.Int w.Sp_dag.work_ns);
      ("idle_ns", J.Int w.Sp_dag.idle_ns);
      ("steals", J.Int w.Sp_dag.steals);
      ("tasks", J.Int w.Sp_dag.tasks);
      ("minor_collections", J.Int w.Sp_dag.minor_collections);
      ("major_collections", J.Int w.Sp_dag.major_collections);
      ("promoted_words", J.Float w.Sp_dag.promoted_words);
      ("minor_words", J.Float w.Sp_dag.minor_words);
    ]

let worker_of_json j : Sp_dag.worker =
  {
    Sp_dag.w = J.get_int (J.member "id" j);
    work_ns = J.get_int (J.member "work_ns" j);
    idle_ns = J.get_int (J.member "idle_ns" j);
    steals = J.get_int (J.member "steals" j);
    tasks = J.get_int (J.member "tasks" j);
    minor_collections = J.get_int (J.member "minor_collections" j);
    major_collections = J.get_int (J.member "major_collections" j);
    promoted_words = J.get_float (J.member "promoted_words" j);
    minor_words = J.get_float (J.member "minor_words" j);
  }

let metrics_to_json (m : Sp_dag.t) threads =
  J.Obj
    [
      ("work_ns", J.Int m.Sp_dag.work_ns);
      ("span_ns", J.Int m.Sp_dag.span_ns);
      ("burdened_span_ns", J.Int m.Sp_dag.burdened_span_ns);
      ("parallelism", J.Float m.Sp_dag.parallelism);
      ("burdened_parallelism", J.Float m.Sp_dag.burdened_parallelism);
      ("constructs", J.Int m.Sp_dag.constructs);
      ("tasks", J.Int m.Sp_dag.tasks);
      ("steals", J.Int m.Sp_dag.steals);
      ("idle_ns", J.Int m.Sp_dag.idle_ns);
      ("queue_delay_ns", J.Int m.Sp_dag.queue_delay_ns);
      ("events", J.Int m.Sp_dag.events);
      ("dropped", J.Int m.Sp_dag.dropped);
      ("load_imbalance", J.Float (Sp_dag.load_imbalance m));
      ( "granularity",
        J.List
          (List.map
             (fun (k, n) ->
               J.Obj [ ("log2_ns", J.Int k); ("count", J.Int n) ])
             m.Sp_dag.granularity) );
      ( "phases",
        J.List
          (List.map
             (fun (p : Sp_dag.phase) ->
               J.Obj
                 [
                   ("name", J.Str p.Sp_dag.name);
                   ("count", J.Int p.Sp_dag.count);
                   ("total_ns", J.Int p.Sp_dag.total_ns);
                 ])
             m.Sp_dag.phases) );
      ("workers", J.List (List.map worker_to_json m.Sp_dag.per_worker));
      ( "predicted_speedup",
        J.List
          (List.init (max 1 threads) (fun i ->
               J.Obj
                 [
                   ("threads", J.Int (i + 1));
                   ("speedup", J.Float (Sp_dag.predicted_speedup m (i + 1)));
                   ( "upper",
                     J.Float
                       (Float.min (float_of_int (i + 1)) m.Sp_dag.parallelism)
                   );
                 ])) );
    ]

let metrics_of_json j : Sp_dag.t =
  {
    Sp_dag.work_ns = J.get_int (J.member "work_ns" j);
    span_ns = J.get_int (J.member "span_ns" j);
    burdened_span_ns = J.get_int (J.member "burdened_span_ns" j);
    parallelism = J.get_float (J.member "parallelism" j);
    burdened_parallelism = J.get_float (J.member "burdened_parallelism" j);
    constructs = J.get_int (J.member "constructs" j);
    tasks = J.get_int (J.member "tasks" j);
    steals = J.get_int (J.member "steals" j);
    idle_ns = J.get_int (J.member "idle_ns" j);
    queue_delay_ns = J.get_int (J.member "queue_delay_ns" j);
    events = J.get_int (J.member "events" j);
    dropped = J.get_int (J.member "dropped" j);
    per_worker =
      List.map worker_of_json (J.get_list (J.member "workers" j));
    phases =
      List.map
        (fun p ->
          {
            Sp_dag.name = J.get_str (J.member "name" p);
            count = J.get_int (J.member "count" p);
            total_ns = J.get_int (J.member "total_ns" p);
          })
        (J.get_list (J.member "phases" j));
    granularity =
      List.map
        (fun g ->
          (J.get_int (J.member "log2_ns" g), J.get_int (J.member "count" g)))
        (J.get_list (J.member "granularity" j));
  }

let record_of_report r =
  {
    J.bench = r.bench;
    input = r.input;
    mode = r.mode;
    scale = r.scale;
    threads = r.threads;
    repeats = 1;
    mean_ns = r.elapsed_ns;
    min_ns = r.elapsed_ns;
    samples_ns = [| r.elapsed_ns |];
    smoke = false;
    verified = r.verified;
    workers = r.workers;
  }

let to_json r =
  J.Obj
    [
      ("schema_version", J.Int J.schema_version);
      ("kind", J.Str "profile");
      ( "meta",
        J.Obj
          [
            ("generator", J.Str "rpb-profile");
            ("seed", J.Int r.seed);
            ("size", J.Str r.size);
          ] );
      (* The standard results array: plain [Bench_json.records_of_doc] (and
         v1-era consumers) read profile files as one benchmark record. *)
      ("results", J.List [ J.record_to_json (record_of_report r) ]);
      ("profile", metrics_to_json r.metrics r.threads);
    ]

let of_json j =
  let v = J.get_int (J.member "schema_version" j) in
  if not (List.mem v J.accepted_schema_versions) then
    raise
      (J.Parse_error (Printf.sprintf "unsupported schema_version %d" v));
  let rc =
    match J.get_list (J.member "results" j) with
    | [ r ] -> J.record_of_json r
    | _ -> raise (J.Parse_error "profile document must hold one result")
  in
  let meta = J.member "meta" j in
  {
    bench = rc.J.bench;
    input = rc.J.input;
    size = J.get_str (J.member "size" meta);
    mode = rc.J.mode;
    scale = rc.J.scale;
    threads = rc.J.threads;
    seed = J.get_int (J.member "seed" meta);
    elapsed_ns = rc.J.mean_ns;
    verified = rc.J.verified;
    workers = rc.J.workers;
    metrics = metrics_of_json (J.member "profile" j);
  }

let write_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string (to_json r));
      output_char oc '\n')

let read_json path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_json (J.of_string (really_input_string ic n)))

(* ---------- Chrome trace export ---------- *)

let write_chrome path (recording : Pool.Recorder.recording) =
  let complete name ~w ~begin_ns ~end_ns =
    J.Obj
      [
        ("name", J.Str name);
        ("ph", J.Str "X");
        ("pid", J.Int 0);
        ("tid", J.Int w);
        ( "ts",
          J.Float
            (Rpb_prim.Timing.epoch_of_monotonic_us
               (float_of_int begin_ns *. 1e-3)) );
        ("dur", J.Float (float_of_int (end_ns - begin_ns) *. 1e-3));
      ]
  in
  let events =
    List.filter_map
      (function
        | Pool.Recorder.Work { w; begin_ns; end_ns; _ } ->
          Some (complete "work" ~w ~begin_ns ~end_ns)
        | Phase { name; w; begin_ns; end_ns } ->
          Some (complete name ~w ~begin_ns ~end_ns)
        | Idle { w; begin_ns; end_ns } ->
          Some (complete "idle" ~w ~begin_ns ~end_ns)
        | Fork _ | Join _ | Exec _ | Steal _ | Gc_sample _ -> None)
      recording.Pool.Recorder.events
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[";
      List.iteri
        (fun i e ->
          output_string oc (if i > 0 then ",\n" else "\n");
          output_string oc (J.to_string e))
        events;
      output_string oc "\n]\n");
  List.length events
