(* Process-global live metrics registry.  See metrics.mli for the model;
   the short version: named counters/gauges/histograms behind one atomic
   enable flag, counters and histograms striped per domain in
   cache-line-padded slabs (plain racy increments, merge at snapshot), and
   a [kind="metrics"] JSON snapshot as the one export format. *)

module Pool = Rpb_pool.Pool
module J = Rpb_benchmarks.Bench_json

(* ------------------------------------------------------------------ *)
(* The switch *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Stripes *)

let n_stripes = 8

(* Fold the domain's id onto a stripe.  Domains on the same stripe race
   with plain increments — acceptable for monotone diagnostics exactly as
   in the pool's counter slabs — but the common writers (executor domain,
   pool workers, connection systhreads of one domain) each dominate a
   stripe of their own. *)
let stripe () = (Domain.self () :> int) land (n_stripes - 1)

(* One cache line of payload per stripe slab, same as the pool's. *)
let pad_slots = 8

type counter = { c_stripes : int array array }
type gauge = { mutable g_value : float }

(* 64 log2(ns) buckets + count + sum_ns, per stripe. *)
let hist_slots = 66
let slot_count = 64
let slot_sum = 65

type histogram = { h_stripes : int array array }

(* ------------------------------------------------------------------ *)
(* Registry *)

let reg_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32
let probes : (string, unit -> float) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32
let seq = ref 0
let started_wall = Unix.gettimeofday ()
let started_mono = Rpb_prim.Timing.now ()

let locked f =
  Mutex.lock reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mutex) f

let find_or_create tbl name make =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some x -> x
      | None ->
        let x = make () in
        Hashtbl.replace tbl name x;
        x)

let counter name =
  find_or_create counters name (fun () ->
      { c_stripes = Array.init n_stripes (fun _ -> Array.make pad_slots 0) })

let gauge name = find_or_create gauges name (fun () -> { g_value = 0. })

let probe name f = locked (fun () -> Hashtbl.replace probes name f)

let histogram name =
  find_or_create histograms name (fun () ->
      { h_stripes = Array.init n_stripes (fun _ -> Array.make hist_slots 0) })

(* ------------------------------------------------------------------ *)
(* Hot paths.  Disabled: one atomic load, no allocation.  Enabled: the
   load, the stripe pick, and plain stores into the caller's slab. *)

let add c n =
  if Atomic.get enabled_flag then begin
    let s = c.c_stripes.(stripe ()) in
    s.(0) <- s.(0) + n
  end

let incr c = add c 1

let set_gauge g v = if Atomic.get enabled_flag then g.g_value <- v

let counter_value c =
  Array.fold_left (fun acc s -> acc + s.(0)) 0 c.c_stripes

let bucket_of_ns ns =
  if ns <= 1 then 0
  else begin
    let b = ref 0 and v = ref ns in
    while !v > 1 do
      v := !v lsr 1;
      Stdlib.incr b
    done;
    min !b 63
  end

let bucket_bounds_ns b =
  ((if b = 0 then 0. else Float.ldexp 1. b), Float.ldexp 1. (b + 1))

let observe_ns h ns =
  if Atomic.get enabled_flag then begin
    let s = h.h_stripes.(stripe ()) in
    let b = bucket_of_ns ns in
    s.(b) <- s.(b) + 1;
    s.(slot_count) <- s.(slot_count) + 1;
    s.(slot_sum) <- s.(slot_sum) + ns
  end

let observe_ms h ms = observe_ns h (int_of_float (ms *. 1e6))

(* ------------------------------------------------------------------ *)
(* Merging and percentiles *)

let hist_buckets h =
  let merged = Array.make 64 0 in
  Array.iter
    (fun s ->
      for b = 0 to 63 do
        merged.(b) <- merged.(b) + s.(b)
      done)
    h.h_stripes;
  merged

let hist_count h = Array.fold_left (fun acc s -> acc + s.(slot_count)) 0 h.h_stripes
let hist_sum_ns h = Array.fold_left (fun acc s -> acc + s.(slot_sum)) 0 h.h_stripes

let percentile_of_buckets_ms buckets q =
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then 0.
  else begin
    (* The rank is Stats' shared nearest-rank definition; only the
       in-bucket interpolation below is histogram-specific. *)
    let rank = Stats.nearest_rank ~count:total ~pct:q in
    let rec go b cum =
      if b > 63 then
        (* All counts consumed below the rank — numerically impossible, but
           degrade to the top bucket's upper bound. *)
        snd (bucket_bounds_ns 63) *. 1e-6
      else begin
        let k = buckets.(b) in
        if k > 0 && cum + k >= rank then begin
          let lo, hi = bucket_bounds_ns b in
          let p = float_of_int (rank - cum) /. float_of_int k in
          (lo +. ((hi -. lo) *. p)) *. 1e-6
        end
        else go (b + 1) (cum + k)
      end
    in
    go 0 0
  end

let percentile_ms h q = percentile_of_buckets_ms (hist_buckets h) q

(* ------------------------------------------------------------------ *)
(* Pool export: polled probes, so [lib/pool] needs no dependency on this
   library and an unpolled pool costs nothing. *)

let register_pool pool =
  let p name f = probe ("pool." ^ name) f in
  p "workers" (fun () -> float_of_int (Pool.size pool));
  p "tasks" (fun () ->
      float_of_int (Pool.Stats.tasks_executed (Pool.Stats.capture pool)));
  p "steals_ok" (fun () ->
      float_of_int (Pool.Stats.steals_ok (Pool.Stats.capture pool)));
  p "steals_failed" (fun () ->
      float_of_int (Pool.Stats.steals_failed (Pool.Stats.capture pool)));
  p "idle_episodes" (fun () ->
      float_of_int (Pool.Stats.idle_episodes (Pool.Stats.capture pool)));
  p "deque_depth_total" (fun () ->
      float_of_int (Array.fold_left ( + ) 0 (Pool.deque_depths pool)));
  p "deque_depth_max" (fun () ->
      float_of_int (Array.fold_left max 0 (Pool.deque_depths pool)));
  p "timer_pending" (fun () -> float_of_int (Pool.Timer.pending_count ()))

(* ------------------------------------------------------------------ *)
(* GC pause sampling via the runtime's own event stream, self-monitored.
   Begin/end pairs of the minor-collection and major-slice phases become
   pause samples in two histograms.  Everything is wrapped defensively:
   when the runtime refuses (sandboxes without a writable events file),
   the plane simply has no pause histograms. *)

let re_cursor : Runtime_events.cursor option ref = ref None
let re_callbacks : Runtime_events.Callbacks.t option ref = ref None

let phase_key phase =
  match phase with
  | Runtime_events.EV_MINOR -> Some 0
  | Runtime_events.EV_MAJOR_SLICE -> Some 1
  | _ -> None

let sample_gc_pauses () =
  match !re_cursor with
  | Some _ -> true
  | None -> (
    try
      Runtime_events.start ();
      let cursor = Runtime_events.create_cursor None in
      let minor_hist = histogram "gc.minor_pause_ns" in
      let major_hist = histogram "gc.major_slice_ns" in
      (* In-flight begins keyed by (ring domain, phase). *)
      let begins : (int * int, int64) Hashtbl.t = Hashtbl.create 16 in
      let runtime_begin ring ts phase =
        match phase_key phase with
        | Some k ->
          Hashtbl.replace begins (ring, k)
            (Runtime_events.Timestamp.to_int64 ts)
        | None -> ()
      in
      let runtime_end ring ts phase =
        match phase_key phase with
        | Some k -> (
          match Hashtbl.find_opt begins (ring, k) with
          | Some t0 ->
            Hashtbl.remove begins (ring, k);
            let dur =
              Int64.to_int
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
            in
            if dur >= 0 then
              observe_ns (if k = 0 then minor_hist else major_hist) dur
          | None -> ())
        | None -> ()
      in
      re_callbacks :=
        Some (Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ());
      re_cursor := Some cursor;
      true
    with _ ->
      re_cursor := None;
      re_callbacks := None;
      false)

let poll_gc_events () =
  match (!re_cursor, !re_callbacks) with
  | Some cursor, Some callbacks -> (
    try Runtime_events.read_poll cursor callbacks None with _ -> 0)
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let float_json v =
  if Float.is_finite v then J.Float v else J.Null

let hist_json h =
  let buckets = hist_buckets h in
  let count = hist_count h in
  let nonzero = ref [] in
  for b = 63 downto 0 do
    if buckets.(b) > 0 then
      nonzero := J.List [ J.Int b; J.Int buckets.(b) ] :: !nonzero
  done;
  let max_ms =
    let rec top b = if b < 0 then 0. else if buckets.(b) > 0 then snd (bucket_bounds_ns b) *. 1e-6 else top (b - 1) in
    top 63
  in
  J.Obj
    [
      ("count", J.Int count);
      ("sum_ns", J.Int (hist_sum_ns h));
      ( "mean_ms",
        float_json
          (if count = 0 then 0.
           else float_of_int (hist_sum_ns h) /. float_of_int count *. 1e-6) );
      ("p50_ms", J.Float (percentile_of_buckets_ms buckets 50.));
      ("p95_ms", J.Float (percentile_of_buckets_ms buckets 95.));
      ("p99_ms", J.Float (percentile_of_buckets_ms buckets 99.));
      ("max_ms", J.Float max_ms);
      ("buckets", J.List !nonzero);
    ]

let snapshot () =
  ignore (poll_gc_events ());
  (* Collect instrument lists under the lock; evaluate probe closures
     outside it so a probe can never deadlock against registration. *)
  let cs, gs, ps, hs, n =
    locked (fun () ->
        Stdlib.incr seq;
        ( sorted_bindings counters,
          sorted_bindings gauges,
          sorted_bindings probes,
          sorted_bindings histograms,
          !seq ))
  in
  (* The GC gauges: one [Gc.quick_stat] per snapshot.  Its counters are
     process-wide on OCaml 5, so no per-domain sampling is needed. *)
  let gc = Gc.quick_stat () in
  let gauge_fields =
    ("gc.minor_collections", J.Float (float_of_int gc.Gc.minor_collections))
    :: ("gc.minor_kwords", J.Float (gc.Gc.minor_words *. 1e-3))
    :: List.map (fun (name, g) -> (name, float_json g.g_value)) gs
    @ List.map
        (fun (name, f) ->
          (name, float_json (try f () with _ -> Float.nan)))
        ps
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  J.Obj
    [
      ("schema_version", J.Int J.schema_version);
      ("kind", J.Str "metrics");
      ("seq", J.Int n);
      ("ts_s", J.Float (Unix.gettimeofday ()));
      ("uptime_s", J.Float (Rpb_prim.Timing.now () -. started_mono));
      ("started_s", J.Float started_wall);
      ("enabled", J.Bool (enabled ()));
      ( "counters",
        J.Obj (List.map (fun (name, c) -> (name, J.Int (counter_value c))) cs)
      );
      ("gauges", J.Obj gauge_fields);
      ("histograms", J.Obj (List.map (fun (name, h) -> (name, hist_json h)) hs));
    ]

let write_snapshot_line oc =
  output_string oc (J.to_string (snapshot ()));
  output_char oc '\n';
  flush oc

let reset () =
  locked (fun () ->
      seq := 0;
      Hashtbl.iter
        (fun _ c -> Array.iter (fun s -> Array.fill s 0 pad_slots 0) c.c_stripes)
        counters;
      Hashtbl.iter (fun _ g -> g.g_value <- 0.) gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun s -> Array.fill s 0 hist_slots 0) h.h_stripes)
        histograms)
