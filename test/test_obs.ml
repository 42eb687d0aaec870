(* Tests for the scheduler flight recorder (Pool.Recorder) and the offline
   work/span analyzer (Rpb_obs): ring-buffer overflow, series-parallel
   provenance, closed-form work/span on a balanced join tree, the
   disabled-path overhead, exact analyzer arithmetic on hand-built
   recordings, and the profile JSON round-trip. *)

module Pool = Rpb_pool.Pool
module R = Pool.Recorder
module Sp_dag = Rpb_obs.Sp_dag
module Profile = Rpb_obs.Profile
module J = Rpb_benchmarks.Bench_json

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Arm the recorder, run [f] as the root strand, and always disarm —
   the recorder is process-global, so a failing test must not leave it on
   for the next one. *)
let record ?ring_capacity pool f =
  Pool.run pool (fun () ->
      R.start ?ring_capacity ();
      Fun.protect
        ~finally:(fun () -> if R.enabled () then ignore (R.stop ()))
        (fun () ->
          R.with_root f;
          R.stop ()))

(* ---------- ring overflow: drop-oldest, count the loss ---------- *)

let test_ring_overflow_drops_oldest () =
  with_pool 1 (fun pool ->
      let r =
        record ~ring_capacity:16 pool (fun () ->
            for _ = 1 to 200 do
              ignore (Pool.join pool (fun () -> 1) (fun () -> 2))
            done)
      in
      Alcotest.(check bool) "events were dropped" true (r.R.dropped > 0);
      Alcotest.(check bool) "something survived" true (r.R.events <> []);
      (* One worker, one ring: at most the capacity survives. *)
      Alcotest.(check bool) "survivors fit the ring" true
        (List.length r.R.events <= 16);
      (* stop sorts by timestamp. *)
      let rec sorted = function
        | a :: (b :: _ as tl) -> R.ts_of a <= R.ts_of b && sorted tl
        | _ -> true
      in
      Alcotest.(check bool) "events sorted by timestamp" true
        (sorted r.R.events);
      (* Drop-oldest: the survivors describe the *newest* constructs.  200
         joins ran; the surviving Fork/Join ids must be within one ring's
         worth of the largest id seen, and the last join must be complete. *)
      let ids =
        List.filter_map
          (function
            | R.Fork { id; _ } | R.Join { id; _ } -> Some id | _ -> None)
          r.R.events
      in
      Alcotest.(check bool) "fork/join ids survived" true (ids <> []);
      let max_id = List.fold_left max min_int ids in
      let min_id = List.fold_left min max_int ids in
      Alcotest.(check bool) "only the newest constructs survive" true
        (max_id - min_id < 16);
      Alcotest.(check bool) "the newest join is complete" true
        (List.exists
           (function R.Join { id; _ } -> id = max_id | _ -> false)
           r.R.events))

(* ---------- series-parallel provenance ---------- *)

let test_provenance_roundtrip () =
  with_pool 1 (fun pool ->
      let r =
        record pool (fun () ->
            ignore
              (Pool.join pool
                 (fun () -> fst (Pool.join pool (fun () -> 1) (fun () -> 2)))
                 (fun () -> snd (Pool.join pool (fun () -> 3) (fun () -> 4)))))
      in
      Alcotest.(check int) "no overflow" 0 r.R.dropped;
      let forks =
        List.filter_map
          (function
            | R.Fork { id; parent; parent_branch; _ } ->
              Some (id, parent, parent_branch)
            | _ -> None)
          r.R.events
      in
      Alcotest.(check int) "three constructs forked" 3 (List.length forks);
      (* Exactly one construct hangs off the root strand (construct 0)... *)
      (match List.filter (fun (_, p, _) -> p = 0) forks with
      | [ (outer, _, 0) ] ->
        (* ...and the two inner joins hang off the outer one, one per
           branch: the inline branch (0) and the spawned branch (1). *)
        let inner = List.filter (fun (_, p, _) -> p = outer) forks in
        Alcotest.(check int) "two children of the outer join" 2
          (List.length inner);
        let branches = List.sort compare (List.map (fun (_, _, b) -> b) inner) in
        Alcotest.(check (list int)) "one child per branch" [ 0; 1 ] branches;
        (* Every forked construct joined, and its spawned branch executed. *)
        List.iter
          (fun (id, _, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "construct %d joined" id)
              true
              (List.exists
                 (function R.Join { id = j; _ } -> j = id | _ -> false)
                 r.R.events);
            Alcotest.(check bool)
              (Printf.sprintf "construct %d spawned branch executed" id)
              true
              (List.exists
                 (function
                   | R.Exec { construct; _ } -> construct = id | _ -> false)
                 r.R.events);
            List.iter
              (fun branch ->
                Alcotest.(check bool)
                  (Printf.sprintf "construct %d branch %d has work" id branch)
                  true
                  (List.exists
                     (function
                       | R.Work { construct; branch = b; _ } ->
                         construct = id && b = branch
                       | _ -> false)
                     r.R.events))
              [ 0; 1 ])
          forks
      | _ -> Alcotest.fail "expected exactly one construct under the root"))

(* ---------- closed-form work/span on a balanced join tree ---------- *)

let spin ns =
  let t0 = Rpb_prim.Timing.monotonic_ns () in
  while Rpb_prim.Timing.monotonic_ns () - t0 < ns do
    ()
  done

let test_join_tree_closed_form () =
  (* A perfect binary join tree of depth 3 with 2 ms busy-wait leaves:
     work = 8 leaves x 2 ms, span = one root-to-leaf path = ~2 ms, so the
     DAG parallelism is ~8.  One worker keeps the schedule deterministic —
     work/span are schedule-independent — and, under the migration-only
     burden rule, means *zero* queue delay: every spawned branch is popped
     by its owner, so burdened span must equal the span exactly. *)
  let leaf_ns = 2_000_000 in
  with_pool 1 (fun pool ->
      let rec tree d =
        if d = 0 then spin leaf_ns
        else
          ignore (Pool.join pool (fun () -> tree (d - 1)) (fun () -> tree (d - 1)))
      in
      let r = record pool (fun () -> tree 3) in
      Alcotest.(check int) "no overflow" 0 r.R.dropped;
      let m = Sp_dag.analyze r in
      Alcotest.(check int) "seven constructs" 7 m.Sp_dag.constructs;
      Alcotest.(check int) "seven spawned branches executed" 7 m.Sp_dag.tasks;
      (* Each leaf busy-waits at least leaf_ns, so work >= 8 x leaf_ns by
         construction; the upper bounds are generous noise allowances. *)
      Alcotest.(check bool)
        (Printf.sprintf "work >= 8 leaves (%d ns)" m.Sp_dag.work_ns)
        true
        (m.Sp_dag.work_ns >= 8 * leaf_ns);
      Alcotest.(check bool)
        (Printf.sprintf "work bounded (%d ns)" m.Sp_dag.work_ns)
        true
        (m.Sp_dag.work_ns <= 20 * leaf_ns);
      Alcotest.(check bool)
        (Printf.sprintf "span covers one leaf (%d ns)" m.Sp_dag.span_ns)
        true
        (m.Sp_dag.span_ns >= leaf_ns);
      Alcotest.(check bool)
        (Printf.sprintf "span is one path, not the whole tree (%d ns)"
           m.Sp_dag.span_ns)
        true
        (m.Sp_dag.span_ns <= 5 * leaf_ns);
      Alcotest.(check bool)
        (Printf.sprintf "parallelism near the closed-form 8 (%.2f)"
           m.Sp_dag.parallelism)
        true
        (m.Sp_dag.parallelism >= 2.0 && m.Sp_dag.parallelism <= 8.5);
      (* Migration-only burden: nothing migrates on one worker. *)
      Alcotest.(check int) "no queue delay on one worker" 0
        m.Sp_dag.queue_delay_ns;
      Alcotest.(check int) "burdened span = span on one worker"
        m.Sp_dag.span_ns m.Sp_dag.burdened_span_ns;
      (* Exactly the 8 leaf strands land in the granularity histogram, all
         near the 2^21 ns bucket. *)
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 m.Sp_dag.granularity in
      Alcotest.(check int) "eight leaf strands bucketed" 8 total;
      List.iter
        (fun (k, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "leaf bucket 2^%d ns is ~2ms" k)
            true
            (k >= 19 && k <= 24))
        m.Sp_dag.granularity;
      Alcotest.(check (float 1e-9)) "one worker is perfectly balanced" 1.0
        (Sp_dag.load_imbalance m))

(* ---------- disabled-path overhead ---------- *)

let test_disabled_paths_stay_cheap () =
  with_pool 1 (fun pool ->
      Pool.run pool (fun () ->
          Alcotest.(check bool) "recorder is off" false (R.enabled ());
          let f () = () in
          (* Recorder.span with the recorder off is a single atomic load
             around the call: allocation-free. *)
          R.span pool "warm" f;
          let before = Gc.allocated_bytes () in
          for _ = 1 to 1000 do
            R.span pool "off" f
          done;
          let per_span = (Gc.allocated_bytes () -. before) /. 1000.0 in
          Alcotest.(check bool)
            (Printf.sprintf "disabled Recorder.span allocation-free (%.1f B)"
              per_span)
            true (per_span < 16.0);
          (* A join always allocates its promise, but with the recorder off
             it must not additionally allocate event records: the per-join
             footprint stays a few words, not a ring's worth. *)
          let g1 () = 1 and g2 () = 2 in
          ignore (Pool.join pool g1 g2);
          let before = Gc.allocated_bytes () in
          for _ = 1 to 1000 do
            ignore (Pool.join pool g1 g2)
          done;
          let per_join = (Gc.allocated_bytes () -. before) /. 1000.0 in
          Alcotest.(check bool)
            (Printf.sprintf "unrecorded join stays small (%.0f B)" per_join)
            true (per_join < 2048.0)))

(* ---------- exact analyzer arithmetic on hand-built recordings ---------- *)

(* One construct under the root, spawned branch *migrated* (forked on w0,
   executed on w1), so its 50 ns fork->exec gap is burden:

     root local: [0,100) + [700,800)           = 200 ns on w0
     c1 inline:  [100,400)                     = 300 ns on w0
     c1 spawned: [150,650) after Exec at 150   = 500 ns on w1

     c1:   work 800, span max(300,500) = 500, burdened max(300, 50+500) = 550
     root: work 1000, span 200+500 = 700, burdened 200+550 = 750 *)
let migrated_recording =
  {
    R.dropped = 0;
    events =
      [
        R.Work { construct = 0; branch = 0; w = 0; begin_ns = 0; end_ns = 100 };
        R.Fork { id = 1; parent = 0; parent_branch = 0; w = 0; ts_ns = 100 };
        R.Work { construct = 1; branch = 0; w = 0; begin_ns = 100; end_ns = 400 };
        R.Exec { construct = 1; w = 1; begin_ns = 150 };
        R.Work { construct = 1; branch = 1; w = 1; begin_ns = 150; end_ns = 650 };
        R.Join { id = 1; w = 0; ts_ns = 700 };
        R.Work { construct = 0; branch = 0; w = 0; begin_ns = 700; end_ns = 800 };
      ];
  }

let test_analyze_exact_arithmetic () =
  let m = Sp_dag.analyze migrated_recording in
  Alcotest.(check int) "work" 1000 m.Sp_dag.work_ns;
  Alcotest.(check int) "span" 700 m.Sp_dag.span_ns;
  Alcotest.(check int) "burdened span" 750 m.Sp_dag.burdened_span_ns;
  Alcotest.(check (float 1e-9)) "parallelism" (1000.0 /. 700.0)
    m.Sp_dag.parallelism;
  Alcotest.(check (float 1e-9)) "burdened parallelism" (1000.0 /. 750.0)
    m.Sp_dag.burdened_parallelism;
  Alcotest.(check int) "migrated queue delay" 50 m.Sp_dag.queue_delay_ns;
  Alcotest.(check int) "constructs" 1 m.Sp_dag.constructs;
  Alcotest.(check int) "tasks" 1 m.Sp_dag.tasks;
  Alcotest.(check int) "events" 7 m.Sp_dag.events;
  (* Both branches of c1 are leaves: 300 ns and 500 ns both land in the
     [2^8, 2^9) bucket. *)
  Alcotest.(check (list (pair int int))) "granularity" [ (8, 2) ]
    m.Sp_dag.granularity;
  (match m.Sp_dag.per_worker with
  | [ w0; w1 ] ->
    Alcotest.(check int) "w0 work" 500 w0.Sp_dag.work_ns;
    Alcotest.(check int) "w0 tasks" 0 w0.Sp_dag.tasks;
    Alcotest.(check int) "w1 work" 500 w1.Sp_dag.work_ns;
    Alcotest.(check int) "w1 tasks" 1 w1.Sp_dag.tasks
  | ws -> Alcotest.failf "expected two workers, got %d" (List.length ws));
  Alcotest.(check (float 1e-9)) "balanced" 1.0 (Sp_dag.load_imbalance m);
  (* T1 / (T1/p + Tb): 1000 / (500 + 750) at p = 2. *)
  Alcotest.(check (float 1e-9)) "predicted speedup p=2" 0.8
    (Sp_dag.predicted_speedup m 2)

(* A non-migrated spawned branch (same worker) has its gap forgiven, and a
   construct whose Fork was lost to overflow is adopted under the root:
   its work still counts, serially, with no burden. *)
let test_analyze_orphans_and_owner_pops () =
  let r =
    {
      R.dropped = 3;
      events =
        [
          R.Work { construct = 0; branch = 0; w = 0; begin_ns = 0; end_ns = 100 };
          R.Fork { id = 1; parent = 0; parent_branch = 0; w = 0; ts_ns = 100 };
          (* owner-popped: same worker, 100 ns gap — NOT burden *)
          R.Exec { construct = 1; w = 0; begin_ns = 200 };
          R.Work { construct = 1; branch = 1; w = 0; begin_ns = 200; end_ns = 300 };
          (* orphan: no Fork for construct 5 survived *)
          R.Work { construct = 5; branch = 1; w = 2; begin_ns = 0; end_ns = 400 };
        ];
    }
  in
  let m = Sp_dag.analyze r in
  Alcotest.(check int) "owner-pop gap is not burden" 0 m.Sp_dag.queue_delay_ns;
  (* root local 100 + c1 100 + orphan 400, all serial under the root. *)
  Alcotest.(check int) "orphan work counts" 600 m.Sp_dag.work_ns;
  Alcotest.(check int) "orphan is serial under root" 600 m.Sp_dag.span_ns;
  Alcotest.(check int) "burdened span has no extra charge" 600
    m.Sp_dag.burdened_span_ns;
  Alcotest.(check int) "constructs include the orphan" 2 m.Sp_dag.constructs;
  Alcotest.(check int) "dropped passes through" 3 m.Sp_dag.dropped

let test_analyze_empty_recording () =
  let m = Sp_dag.analyze { R.events = []; dropped = 0 } in
  Alcotest.(check int) "work" 0 m.Sp_dag.work_ns;
  Alcotest.(check int) "span" 0 m.Sp_dag.span_ns;
  Alcotest.(check (float 1e-9)) "parallelism defaults to 1" 1.0
    m.Sp_dag.parallelism;
  Alcotest.(check int) "constructs" 0 m.Sp_dag.constructs;
  Alcotest.(check bool) "no granularity buckets" true
    (m.Sp_dag.granularity = []);
  Alcotest.(check (float 1e-9)) "speedup floor" 1.0
    (Sp_dag.predicted_speedup m 4)

(* ---------- the profile driver and its JSON ---------- *)

let test_profile_json_roundtrip () =
  let r = Profile.profile ~bench:"sort" ~threads:2 ~scale:0 ~seed:7 () in
  Alcotest.(check bool) "profiled run verified" true r.Profile.verified;
  Alcotest.(check bool) "recorded some constructs" true
    (r.Profile.metrics.Sp_dag.constructs > 0);
  let path = Filename.temp_file "rpb_profile" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Profile.write_json ~path r;
  let back = Profile.read_json path in
  Alcotest.(check string) "bench" r.Profile.bench back.Profile.bench;
  Alcotest.(check string) "input" r.Profile.input back.Profile.input;
  Alcotest.(check string) "mode" r.Profile.mode back.Profile.mode;
  Alcotest.(check int) "threads" r.Profile.threads back.Profile.threads;
  Alcotest.(check int) "seed" r.Profile.seed back.Profile.seed;
  Alcotest.(check bool) "verified" r.Profile.verified back.Profile.verified;
  Alcotest.(check bool) "worker stats round-trip" true
    (back.Profile.workers = r.Profile.workers);
  let a = r.Profile.metrics and b = back.Profile.metrics in
  Alcotest.(check int) "work" a.Sp_dag.work_ns b.Sp_dag.work_ns;
  Alcotest.(check int) "span" a.Sp_dag.span_ns b.Sp_dag.span_ns;
  Alcotest.(check int) "burdened span" a.Sp_dag.burdened_span_ns
    b.Sp_dag.burdened_span_ns;
  Alcotest.(check int) "constructs" a.Sp_dag.constructs b.Sp_dag.constructs;
  Alcotest.(check int) "tasks" a.Sp_dag.tasks b.Sp_dag.tasks;
  Alcotest.(check int) "steals" a.Sp_dag.steals b.Sp_dag.steals;
  Alcotest.(check int) "queue delay" a.Sp_dag.queue_delay_ns
    b.Sp_dag.queue_delay_ns;
  Alcotest.(check int) "dropped" a.Sp_dag.dropped b.Sp_dag.dropped;
  Alcotest.(check (list (pair int int))) "granularity" a.Sp_dag.granularity
    b.Sp_dag.granularity;
  (* The profile document is also a valid bench document at the current
     schema version: the plain Bench_json reader sees the run as one
     standard record. *)
  let docj = J.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Alcotest.(check int) "current schema_version" J.schema_version
    J.(get_int (member "schema_version" docj));
  Alcotest.(check string) "kind" "profile" J.(get_str (member "kind" docj));
  (match J.records_of_doc docj with
  | [ rec_ ] ->
    Alcotest.(check string) "record bench" "sort" rec_.J.bench;
    Alcotest.(check int) "record threads" 2 rec_.J.threads
  | rs -> Alcotest.failf "expected one embedded record, got %d" (List.length rs));
  (* Documents written while the scheduling-policy name was still stamped
     into the record and the profile section keep parsing: readers ignore
     the key. *)
  let with_policy = function
    | J.Obj kvs -> J.Obj (("policy", J.Str "work_first") :: kvs)
    | j -> j
  in
  let stamped =
    match docj with
    | J.Obj kvs ->
      J.Obj
        (List.map
           (function
             | "results", J.List rs ->
               ("results", J.List (List.map with_policy rs))
             | "profile", p -> ("profile", with_policy p)
             | kv -> kv)
           kvs)
    | j -> j
  in
  let old = Profile.of_json (J.of_string (J.to_string stamped)) in
  Alcotest.(check string) "policy-stamped document: bench" "sort"
    old.Profile.bench;
  Alcotest.(check int) "policy-stamped document: work" a.Sp_dag.work_ns
    old.Profile.metrics.Sp_dag.work_ns;
  (* The human report leads with the acceptance metrics. *)
  let s = Profile.summary r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary mentions %S" needle)
        true
        (let len = String.length needle in
         let n = String.length s in
         let rec find i = i + len <= n && (String.sub s i len = needle || find (i + 1)) in
         find 0))
    [ "work"; "span"; "parallelism"; "burdened"; "speedup"; "granularity" ]

let test_profile_unknown_bench () =
  match Profile.profile ~bench:"no-such-bench" ~threads:1 ~scale:0 ~seed:0 () with
  | _ -> Alcotest.fail "accepted an unknown benchmark"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "rpb_obs"
    [
      ( "recorder",
        [
          Alcotest.test_case "ring overflow drops oldest" `Quick
            test_ring_overflow_drops_oldest;
          Alcotest.test_case "provenance round-trip" `Quick
            test_provenance_roundtrip;
          Alcotest.test_case "join-tree closed form" `Quick
            test_join_tree_closed_form;
          Alcotest.test_case "disabled paths stay cheap" `Quick
            test_disabled_paths_stay_cheap;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "exact arithmetic" `Quick
            test_analyze_exact_arithmetic;
          Alcotest.test_case "orphans and owner pops" `Quick
            test_analyze_orphans_and_owner_pops;
          Alcotest.test_case "empty recording" `Quick
            test_analyze_empty_recording;
        ] );
      ( "profile",
        [
          Alcotest.test_case "JSON round-trip" `Quick
            test_profile_json_roundtrip;
          Alcotest.test_case "unknown bench" `Quick test_profile_unknown_bench;
        ] );
    ]
