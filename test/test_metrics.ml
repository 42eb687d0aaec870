(* The live-metrics plane: log2 histogram bucket math, striped counters,
   percentile interpolation, the enable switch's allocation contract, the
   snapshot document shape, Latency percentile edge cases, and the timer
   wheel's shutdown/respawn pin. *)

module Metrics = Rpb_obs.Metrics
module Latency = Rpb_serve.Latency
module Pool = Rpb_pool.Pool
module J = Rpb_benchmarks.Bench_json

(* Every test runs against the same process-global registry; reset + disable
   keeps them independent. *)
let fresh () =
  Metrics.disable ();
  Metrics.reset ()

(* ---------- log2 bucket boundaries ---------- *)

let test_bucket_boundaries () =
  fresh ();
  Alcotest.(check int) "0 ns" 0 (Metrics.bucket_of_ns 0);
  Alcotest.(check int) "1 ns" 0 (Metrics.bucket_of_ns 1);
  Alcotest.(check int) "negative clamps to 0" 0 (Metrics.bucket_of_ns (-5));
  (* Bucket b holds [2^b, 2^(b+1)): exact powers land in their own bucket,
     one below is the previous bucket, one above stays. *)
  (* OCaml ints are 63-bit: 2^61 is the largest representable power, so the
     top reachable bucket is 61 (max_int = 2^62 - 1 lives in [2^61, 2^62)). *)
  for k = 2 to 61 do
    Alcotest.(check int)
      (Printf.sprintf "2^%d - 1" k)
      (k - 1)
      (Metrics.bucket_of_ns ((1 lsl k) - 1));
    Alcotest.(check int)
      (Printf.sprintf "2^%d" k)
      k
      (Metrics.bucket_of_ns (1 lsl k));
    Alcotest.(check int)
      (Printf.sprintf "2^%d + 1" k)
      k
      (Metrics.bucket_of_ns ((1 lsl k) + 1))
  done;
  Alcotest.(check int) "max_int lands in bucket 61" 61
    (Metrics.bucket_of_ns max_int);
  (* Bounds agree with membership. *)
  for b = 1 to 63 do
    let lo, hi = Metrics.bucket_bounds_ns b in
    Alcotest.(check (float 0.)) "lower bound" (Float.ldexp 1. b) lo;
    Alcotest.(check (float 0.)) "upper bound" (Float.ldexp 1. (b + 1)) hi
  done;
  let lo0, hi0 = Metrics.bucket_bounds_ns 0 in
  Alcotest.(check (float 0.)) "bucket 0 lower" 0. lo0;
  Alcotest.(check (float 0.)) "bucket 0 upper" 2. hi0

(* ---------- observation and merged views ---------- *)

let test_histogram_observe_and_merge () =
  fresh ();
  let h = Metrics.histogram "test.h" in
  Metrics.enable ();
  Metrics.observe_ns h 1;
  Metrics.observe_ns h 1000;
  Metrics.observe_ns h 1000;
  Metrics.observe_ns h 1_000_000;
  Metrics.disable ();
  Alcotest.(check int) "count" 4 (Metrics.hist_count h);
  Alcotest.(check int) "sum" 1_002_001 (Metrics.hist_sum_ns h);
  let buckets = Metrics.hist_buckets h in
  Alcotest.(check int) "bucket total = count" 4
    (Array.fold_left ( + ) 0 buckets);
  Alcotest.(check int) "1 ns in bucket 0" 1 buckets.(0);
  Alcotest.(check int) "1000 ns pair share a bucket" 2
    buckets.(Metrics.bucket_of_ns 1000);
  Alcotest.(check int) "1 ms alone" 1 buckets.(Metrics.bucket_of_ns 1_000_000)

let test_counter_totals_across_domains () =
  fresh ();
  let c = Metrics.counter "test.c" in
  Metrics.enable ();
  Metrics.incr c;
  Metrics.add c 9;
  (* Concurrent domains write their own stripes; the merged value is exact
     because no two of these writers share a stripe slot transactionally —
     each domain's plain increments are its own. *)
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join domains;
  Metrics.disable ();
  Alcotest.(check int) "merged counter" 4010 (Metrics.counter_value c)

let test_switch_gates_writes () =
  fresh ();
  let c = Metrics.counter "test.switch" in
  let h = Metrics.histogram "test.switch_h" in
  Metrics.incr c;
  Metrics.observe_ns h 500;
  Alcotest.(check int) "disabled incr is a no-op" 0 (Metrics.counter_value c);
  Alcotest.(check int) "disabled observe is a no-op" 0 (Metrics.hist_count h);
  Metrics.enable ();
  Alcotest.(check bool) "enabled" true (Metrics.enabled ());
  Metrics.incr c;
  Metrics.disable ();
  Alcotest.(check int) "enabled incr lands" 1 (Metrics.counter_value c)

(* ---------- percentiles ---------- *)

let test_percentiles () =
  fresh ();
  let h = Metrics.histogram "test.pct" in
  Alcotest.(check (float 0.)) "empty histogram" 0. (Metrics.percentile_ms h 50.);
  (* A single sample interpolates inside its own bucket. *)
  Metrics.enable ();
  Metrics.observe_ns h 1500;
  Metrics.disable ();
  let p50 = Metrics.percentile_ms h 50. in
  let lo, hi = Metrics.bucket_bounds_ns (Metrics.bucket_of_ns 1500) in
  Alcotest.(check bool)
    (Printf.sprintf "single sample inside its bucket (%.6f ms)" p50)
    true
    (p50 >= lo *. 1e-6 && p50 <= hi *. 1e-6);
  (* Exact interpolation arithmetic on a hand-built bucket array: 100
     samples in bucket 10 ([1024, 2048) ns).  Nearest-rank ceil(q*n/100)
     then linear within the bucket. *)
  let buckets = Array.make 64 0 in
  buckets.(10) <- 100;
  let expect q =
    let rank = int_of_float (ceil (q *. 100. /. 100.)) in
    (1024. +. (1024. *. (float_of_int rank /. 100.))) *. 1e-6
  in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%.0f of uniform bucket" q)
        (expect q)
        (Metrics.percentile_of_buckets_ms buckets q))
    [ 1.; 50.; 95.; 99.; 100. ];
  (* Two buckets: p50 stays in the lower, p99 reaches the upper. *)
  let buckets = Array.make 64 0 in
  buckets.(10) <- 90;
  buckets.(20) <- 10;
  Alcotest.(check bool) "p50 in the low bucket" true
    (Metrics.percentile_of_buckets_ms buckets 50. < 2048. *. 1e-6);
  Alcotest.(check bool) "p99 in the high bucket" true
    (Metrics.percentile_of_buckets_ms buckets 99. >= 1048576. *. 1e-6);
  (* Quantile clamping. *)
  Alcotest.(check bool) "q<0 clamps" true
    (Metrics.percentile_of_buckets_ms buckets (-5.) > 0.);
  Alcotest.(check bool) "q>100 clamps" true
    (Metrics.percentile_of_buckets_ms buckets 250.
    <= snd (Metrics.bucket_bounds_ns 20) *. 1e-6)

(* ---------- the disabled path allocates nothing ---------- *)

let test_disabled_path_allocation_free () =
  fresh ();
  let c = Metrics.counter "test.alloc_c" in
  let h = Metrics.histogram "test.alloc_h" in
  (* Warm both paths, then measure: one atomic load per call, no
     allocation — same contract as Pool.Recorder.span off. *)
  Metrics.incr c;
  Metrics.observe_ns h 100;
  let before = Gc.allocated_bytes () in
  for _ = 1 to 1000 do
    Metrics.incr c
  done;
  let per_incr = (Gc.allocated_bytes () -. before) /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "disabled incr allocation-free (%.1f B)" per_incr)
    true (per_incr < 16.0);
  let before = Gc.allocated_bytes () in
  for i = 1 to 1000 do
    Metrics.observe_ns h i
  done;
  let per_obs = (Gc.allocated_bytes () -. before) /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "disabled observe allocation-free (%.1f B)" per_obs)
    true (per_obs < 16.0);
  let g = Metrics.gauge "test.alloc_g" in
  let before = Gc.allocated_bytes () in
  for _ = 1 to 1000 do
    Metrics.set_gauge g 1.0
  done;
  let per_set = (Gc.allocated_bytes () -. before) /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "disabled set_gauge allocation-free (%.1f B)" per_set)
    true (per_set < 16.0)

(* ---------- the snapshot document ---------- *)

let test_snapshot_shape () =
  fresh ();
  let c = Metrics.counter "test.snap_c" in
  let h = Metrics.histogram "test.snap_h" in
  Metrics.probe "test.snap_probe" (fun () -> 7.5);
  Metrics.probe "test.snap_raises" (fun () -> failwith "boom");
  Metrics.enable ();
  Metrics.incr c;
  Metrics.incr c;
  Metrics.observe_ns h 1_000_000;
  let s1 = Metrics.snapshot () in
  let s2 = Metrics.snapshot () in
  Metrics.disable ();
  Alcotest.(check string) "kind" "metrics" (J.get_str (J.member "kind" s1));
  Alcotest.(check bool) "seq advances" true
    (J.get_int (J.member "seq" s2) > J.get_int (J.member "seq" s1));
  let counters = J.member "counters" s1 in
  Alcotest.(check int) "counter value" 2
    (J.get_int (J.member "test.snap_c" counters));
  let gauges = J.member "gauges" s1 in
  Alcotest.(check (float 0.)) "probe evaluated" 7.5
    (J.get_float (J.member "test.snap_probe" gauges));
  Alcotest.(check bool) "raising probe reports null, not a crash" true
    (J.member "test.snap_raises" gauges = J.Null);
  let hist = J.member "test.snap_h" (J.member "histograms" s1) in
  Alcotest.(check int) "hist count" 1 (J.get_int (J.member "count" hist));
  Alcotest.(check int) "hist sum" 1_000_000
    (J.get_int (J.member "sum_ns" hist));
  (* The document round-trips through the printer/parser. *)
  let reparsed = J.of_string (J.to_string s1) in
  Alcotest.(check string) "round-trips" "metrics"
    (J.get_str (J.member "kind" reparsed));
  (* And rpb top's parser accepts it and reconciles the counter. *)
  (match Rpb_serve.Top.parse_snapshot s1 with
  | Error e -> Alcotest.fail ("top rejects snapshot: " ^ e)
  | Ok snap ->
    Alcotest.(check int) "top sees the counter" 2
      (Option.value (List.assoc_opt "test.snap_c" snap.Rpb_serve.Top.counters)
         ~default:(-1)));
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
  Alcotest.(check int) "reset zeroes histograms" 0 (Metrics.hist_count h)

(* ---------- pool export ---------- *)

let test_register_pool_probes () =
  fresh ();
  let pool = Pool.create ~num_workers:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Metrics.register_pool pool;
  Metrics.enable ();
  Pool.run pool (fun () ->
      Pool.parallel_for ~grain:1 ~start:0 ~finish:63
        ~body:(fun _ -> ignore (Sys.opaque_identity 0))
        pool);
  let s = Metrics.snapshot () in
  Metrics.disable ();
  let gauges = J.member "gauges" s in
  Alcotest.(check (float 0.)) "worker count probe" 2.
    (J.get_float (J.member "pool.workers" gauges));
  Alcotest.(check bool) "tasks probe counted the loop" true
    (J.get_float (J.member "pool.tasks" gauges) > 0.);
  Alcotest.(check bool) "timer probe present" true
    (J.member_opt "pool.timer_pending" gauges <> None)

(* ---------- the process-wide GC gauge ---------- *)

(* [gc.minor_collections] read from a snapshot, bracketed by two
   [Gc.quick_stat] reads on this domain; retried until no minor collection
   lands inside the bracket, so the snapshot must have seen exactly the
   bracketing count. *)
let rec gc_reading () =
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let s = Metrics.snapshot () in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  if before <> after then gc_reading ()
  else
    ( J.get_float (J.member "gc.minor_collections" (J.member "gauges" s)),
      before )

let test_gc_gauge_is_process_wide () =
  fresh ();
  let pool = Pool.create ~num_workers:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Metrics.enable ();
  let g0, q0 = gc_reading () in
  Pool.run pool (fun () ->
      Pool.parallel_for ~grain:1 ~start:0 ~finish:16384
        ~body:(fun i -> ignore (Sys.opaque_identity (Array.make 256 i)))
        pool);
  let g1, q1 = gc_reading () in
  Metrics.disable ();
  Alcotest.(check bool) "the run collected" true (q1 > q0);
  Alcotest.(check (float 0.)) "gauge delta = Gc.quick_stat delta"
    (float_of_int (q1 - q0)) (g1 -. g0)

(* ---------- Latency summary edge cases ---------- *)

let test_latency_edge_cases () =
  (* Empty: all zeros, no division by zero. *)
  let empty = Latency.summarize (Latency.create ()) in
  Alcotest.(check int) "empty count" 0 empty.Latency.count;
  Alcotest.(check (float 0.)) "empty mean" 0. empty.Latency.mean_ms;
  Alcotest.(check (float 0.)) "empty p50" 0. empty.Latency.p50_ms;
  Alcotest.(check (float 0.)) "empty p99" 0. empty.Latency.p99_ms;
  Alcotest.(check (float 0.)) "empty max" 0. empty.Latency.max_ms;
  (* Single sample: every percentile is that sample. *)
  let one = Latency.create () in
  Latency.add one 3.5;
  let s = Latency.summarize one in
  Alcotest.(check int) "single count" 1 s.Latency.count;
  List.iter
    (fun v -> Alcotest.(check (float 1e-9)) "single sample everywhere" 3.5 v)
    [ s.Latency.mean_ms; s.Latency.p50_ms; s.Latency.p95_ms;
      s.Latency.p99_ms; s.Latency.max_ms ];
  (* All-equal samples: percentiles collapse to the common value. *)
  let eq = Latency.create () in
  for _ = 1 to 100 do
    Latency.add eq 2.0
  done;
  let s = Latency.summarize eq in
  Alcotest.(check int) "all-equal count" 100 s.Latency.count;
  List.iter
    (fun v -> Alcotest.(check (float 1e-9)) "all-equal percentiles" 2.0 v)
    [ s.Latency.mean_ms; s.Latency.p50_ms; s.Latency.p95_ms;
      s.Latency.p99_ms; s.Latency.max_ms ];
  (* Merge preserves both sides' counts. *)
  let merged = Latency.merge one eq in
  Alcotest.(check int) "merge count" 101 (Latency.count merged)

(* ---------- top: restart re-baselining ---------- *)

module Top = Rpb_serve.Top

let mk_snap ?(seq = 1) ?(ts = 100.) ?(uptime = 10.) ?(counters = [])
    ?(gauges = []) () =
  { Top.seq; ts_s = ts; uptime_s = uptime; counters; gauges; hists = [] }

let test_top_restart_rebaseline () =
  let p = mk_snap ~seq:10 ~ts:100. ~uptime:50. ~counters:[ ("test.req", 100) ] () in
  (* A restarted server: uptime and seq start over, counters drop.  The
     delta consumers must re-baseline, not report a violation (or a
     negative rate). *)
  let fresh =
    mk_snap ~seq:1 ~ts:101. ~uptime:0.5 ~counters:[ ("test.req", 3) ] ()
  in
  (match Top.check_invariants ~prev:(Some p) fresh with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("restart flagged as a violation: " ^ e));
  Alcotest.(check bool) "render survives a restart" true
    (String.length (Top.render ~prev:p fresh) > 0);
  (* ...while the same counter drop WITHOUT a restart is the violation the
     check exists for *)
  let bad =
    mk_snap ~seq:11 ~ts:101. ~uptime:51. ~counters:[ ("test.req", 50) ] ()
  in
  (match Top.check_invariants ~prev:(Some p) bad with
  | Ok () -> Alcotest.fail "a mid-run counter drop must be flagged"
  | Error _ -> ())

(* ---------- one percentile definition across the codebase ---------- *)

module Stats = Rpb_obs.Stats

(* Latency.summarize, Stats.percentile_sorted and the histogram-bucket
   interpolation all answer through Stats.nearest_rank now; seeded random
   sample sets pin them to each other. *)
let test_percentile_cross_implementation () =
  let rng = Rpb_prim.Rng.create 17 in
  for round = 1 to 20 do
    let n = 1 + ((round * 37) mod 200) in
    let samples = Array.init n (fun _ -> 0.001 +. Rpb_prim.Rng.float rng 50.) in
    let lat = Latency.create () in
    Array.iter (Latency.add lat) samples;
    let s = Latency.summarize lat in
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    List.iter
      (fun (q, v) ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "n=%d p%g agrees with percentile_sorted" n q)
          (Stats.percentile_sorted sorted q)
          v)
      [ (50., s.Latency.p50_ms); (95., s.Latency.p95_ms);
        (99., s.Latency.p99_ms) ];
    (* the log2-bucket estimate must land inside the bucket holding the
       exact nearest-rank sample *)
    let buckets = Array.make 64 0 in
    Array.iter
      (fun ms ->
        let b = Metrics.bucket_of_ns (int_of_float (ms *. 1e6)) in
        buckets.(b) <- buckets.(b) + 1)
      samples;
    List.iter
      (fun q ->
        let rank = Stats.nearest_rank ~count:n ~pct:q in
        let exact_ns = int_of_float (sorted.(rank - 1) *. 1e6) in
        let lo, hi = Metrics.bucket_bounds_ns (Metrics.bucket_of_ns exact_ns) in
        let est = Metrics.percentile_of_buckets_ms buckets q in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d p%g bucket estimate inside the exact bucket"
             n q)
          true
          (est >= lo *. 1e-6 -. 1e-9 && est <= hi *. 1e-6 +. 1e-9))
      [ 50.; 95.; 99. ]
  done

(* ---------- timer wheel shutdown/respawn (the serve-drain pin) ---------- *)

let test_timer_shutdown_respawns () =
  let fired = Atomic.make 0 in
  let h = Pool.Timer.schedule ~delay_s:0.01 (fun () -> Atomic.incr fired) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get fired = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "timer fired" 1 (Atomic.get fired);
  Pool.Timer.cancel h;
  let spawned_before = Pool.Timer.domains_spawned () in
  (* What serve's drain does: shutdown joins the timer domain and abandons
     pending timers... *)
  let never = Pool.Timer.schedule ~delay_s:60.0 (fun () -> Atomic.incr fired) in
  Alcotest.(check int) "one pending" 1 (Pool.Timer.pending_count ());
  Pool.Timer.shutdown ();
  Alcotest.(check int) "shutdown abandons pending timers" 0
    (Pool.Timer.pending_count ());
  ignore never;
  (* ...and the next schedule transparently respawns a fresh domain, so a
     process serving again after a drain still has deadlines. *)
  let h2 = Pool.Timer.schedule ~delay_s:0.01 (fun () -> Atomic.incr fired) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get fired < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "respawned wheel fires" 2 (Atomic.get fired);
  Pool.Timer.cancel h2;
  Alcotest.(check int) "respawn cost exactly one more domain"
    (spawned_before + 1)
    (Pool.Timer.domains_spawned ());
  Pool.Timer.shutdown ()

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "observe and merge" `Quick
            test_histogram_observe_and_merge;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter striping" `Quick
            test_counter_totals_across_domains;
          Alcotest.test_case "switch gates writes" `Quick
            test_switch_gates_writes;
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_path_allocation_free;
          Alcotest.test_case "snapshot shape" `Quick test_snapshot_shape;
          Alcotest.test_case "pool probes" `Quick test_register_pool_probes;
          Alcotest.test_case "gc gauge is process-wide" `Quick
            test_gc_gauge_is_process_wide;
        ] );
      ( "latency",
        [
          Alcotest.test_case "edge cases" `Quick test_latency_edge_cases;
          Alcotest.test_case "one percentile definition" `Quick
            test_percentile_cross_implementation;
        ] );
      ( "top",
        [
          Alcotest.test_case "restart re-baseline" `Quick
            test_top_restart_rebaseline;
        ] );
      ( "timer",
        [
          Alcotest.test_case "shutdown respawns" `Quick
            test_timer_shutdown_respawns;
        ] );
    ]
