(* The batch phase: the paper's zero-cost ratios (Fig. 4: T1/Tseq and
   TP/Tseq) and fear ratios (Fig. 5: checked/unsafe and sync/unsafe) over
   one suite, timed from outside through the registry entries. *)

module Pool = Rpb_pool.Pool
module Stats = Rpb_obs.Stats
open Rpb_benchmarks

let now = Rpb_prim.Timing.now

type config = Seq | T1 | Tp of Mode.t

let configs = [ Seq; T1; Tp Mode.Unsafe; Tp Mode.Checked; Tp Mode.Synchronized ]

let config_name = function
  | Seq -> "seq"
  | T1 -> "t1"
  | Tp Mode.Unsafe -> "tp"
  | Tp Mode.Checked -> "checked"
  | Tp Mode.Synchronized -> "sync"

(* A prepared instance closes over the pool it was prepared with, so the
   1-worker runs (Tseq, T1) and the P-worker runs each get their own. *)
type instance = {
  entry : Common.entry;
  scale : int;
  on1 : Common.prepared;
  onp : Common.prepared;
}

type env = {
  p1 : Pool.t;
  pp : Pool.t;
  instances : instance list;
  create_s : float;  (** creating both pools *)
  prepare_s : float;  (** every [prepare] *)
}

let entry_of name =
  match Registry.find name with
  | Some e -> e
  | None -> invalid_arg ("unknown benchmark " ^ name)

let setup ~p suite =
  let t0 = now () in
  let p1, pp =
    Span.with_ "pool.create" (fun () ->
        (Pool.create ~num_workers:1 (), Pool.create ~num_workers:p ()))
  in
  let t1 = now () in
  let instances =
    List.map
      (fun (name, scale) ->
        let entry = entry_of name in
        let input = List.hd entry.Common.inputs in
        Span.with_ ("prepare:" ^ name) (fun () ->
            let prep pool =
              Pool.run pool (fun () -> entry.Common.prepare pool ~input ~scale)
            in
            let on1 = prep p1 in
            { entry; scale; on1; onp = prep pp }))
      suite
  in
  { p1; pp; instances; create_s = t1 -. t0; prepare_s = now () -. t1 }

let teardown env =
  Pool.shutdown env.p1;
  Pool.shutdown env.pp

let run env inst = function
  | Seq -> Pool.run env.p1 (fun () -> inst.on1.Common.run_seq ())
  | T1 -> Pool.run env.p1 (fun () -> inst.on1.Common.run_par Mode.Unsafe)
  | Tp m -> Pool.run env.pp (fun () -> inst.onp.Common.run_par m)

type bench_result = {
  name : string;
  bscale : int;
  samples_ms : (config * float array) list;  (** per round, in run order *)
  t1_over_seq : float;
  tp_over_seq : float;
  checked_over_unsafe : float;
  sync_over_unsafe : float;
}

(* Scheduler and GC activity summed over the timed TP (unsafe) runs. *)
type counters = {
  mutable tp_runs : int;
  mutable tasks : int;
  mutable steals_ok : int;
  mutable steals_failed : int;
  mutable idle : int;
  mutable minor : int;
  mutable minor_words : float;
  mutable major_words : float;
}

type result = { benches : bench_result list; counters : counters }

(* Times one configuration; TP (unsafe) runs also feed the counters.  The
   major GC cycle is finished first, so a run pays for the garbage it makes
   and not for the debt left by the run before it: without this, the
   per-benchmark ratios spread two to four times wider between runs. *)
let timed env counters inst c =
  Gc.major ();
  let tp = c = Tp Mode.Unsafe in
  let before = if tp then Some (Pool.Stats.capture env.pp, Gc.quick_stat ()) else None in
  let t0 = now () in
  Span.with_ (config_name c) (fun () -> run env inst c);
  let ms = (now () -. t0) *. 1e3 in
  (match before with
  | Some (s0, g0) ->
    let d = Pool.Stats.diff ~before:s0 ~after:(Pool.Stats.capture env.pp) in
    let g1 = Gc.quick_stat () in
    counters.tp_runs <- counters.tp_runs + 1;
    counters.tasks <- counters.tasks + Pool.Stats.tasks_executed d;
    counters.steals_ok <- counters.steals_ok + Pool.Stats.steals_ok d;
    counters.steals_failed <- counters.steals_failed + Pool.Stats.steals_failed d;
    counters.idle <- counters.idle + Pool.Stats.idle_episodes d;
    counters.minor <- counters.minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
    counters.minor_words <- counters.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    counters.major_words <- counters.major_words +. (g1.Gc.major_words -. g0.Gc.major_words)
  | None -> ());
  ms

(* An untimed warm-up round, then timed rounds until [budget_s] is spent
   (at least [min_rounds]).  A round runs every benchmark, in a seeded
   order, and each benchmark runs every configuration once, starting at a
   seeded rotation.  Interleaving spreads each benchmark's samples over the
   whole phase, so a slow spell of the host hits all of them alike.  Each
   round yields one paired ratio per configuration pair; a benchmark's
   ratio is the median of those, which is steadier than a ratio of
   separate medians. *)
let measure env ~rng ~budget_s ~min_rounds ~max_rounds =
  let counters =
    { tp_runs = 0; tasks = 0; steals_ok = 0; steals_failed = 0; idle = 0;
      minor = 0; minor_words = 0.; major_words = 0. }
  in
  let insts = Array.of_list env.instances in
  let order = Array.map (fun i -> insts.(i)) (Rpb_prim.Rng.permutation rng (Array.length insts)) in
  let cfgs = Array.of_list configs in
  let ncfg = Array.length cfgs in
  let offsets = Array.map (fun _ -> Rpb_prim.Rng.int rng ncfg) order in
  (* samples.(b).(k): configuration k's times of benchmark b, newest first *)
  let samples = Array.map (fun _ -> Array.make ncfg []) order in
  Array.iter (fun inst -> Array.iter (run env inst) cfgs) order;
  let t_end = now () +. budget_s in
  let rounds = ref 0 in
  while (!rounds < min_rounds || now () < t_end) && !rounds < max_rounds do
    Span.with_ "round" (fun () ->
        Array.iteri
          (fun b inst ->
            Span.with_ ("bench:" ^ inst.entry.Common.name) @@ fun () ->
            for j = 0 to ncfg - 1 do
              let k = (offsets.(b) + !rounds + j) mod ncfg in
              samples.(b).(k) <- timed env counters inst cfgs.(k) :: samples.(b).(k)
            done)
          order);
    incr rounds
  done;
  let benches =
    Array.to_list
      (Array.mapi
         (fun b inst ->
           let per = Array.map (fun l -> Array.of_list (List.rev l)) samples.(b) in
           let of_cfg c =
             let rec idx i = if cfgs.(i) = c then i else idx (i + 1) in
             per.(idx 0)
           in
           let ratio num den = Stats.median (Array.map2 ( /. ) (of_cfg num) (of_cfg den)) in
           {
             name = inst.entry.Common.name;
             bscale = inst.scale;
             samples_ms = List.map (fun c -> (c, of_cfg c)) configs;
             t1_over_seq = ratio T1 Seq;
             tp_over_seq = ratio (Tp Mode.Unsafe) Seq;
             checked_over_unsafe = ratio (Tp Mode.Checked) (Tp Mode.Unsafe);
             sync_over_unsafe = ratio (Tp Mode.Synchronized) (Tp Mode.Unsafe);
           })
         order)
  in
  { benches; counters }

let median_ms b c = Stats.median (List.assoc c b.samples_ms)
let rounds b = Array.length (snd (List.hd b.samples_ms))

(* After the timed rounds: every prepared instance and mode must verify,
   and its snapshot must equal the sequential run's.  One (ok, what) pair
   per check. *)
let verify env =
  Span.with_ "verify" @@ fun () ->
  List.concat_map
    (fun inst ->
      let name = inst.entry.Common.name in
      Span.with_ ("verify:" ^ name) @@ fun () ->
      let seq_snap =
        Pool.run env.p1 (fun () ->
            inst.on1.Common.run_seq ();
            inst.on1.Common.snapshot ())
      in
      List.map
        (fun (pool, q, label, mode) ->
          let ok =
            try
              Pool.run pool (fun () ->
                  q.Common.run_par mode;
                  q.Common.verify () && q.Common.snapshot () = seq_snap)
            with _ -> false
          in
          (ok, Printf.sprintf "%s/%s failed verification" name label))
        [
          (env.p1, inst.on1, "t1", Mode.Unsafe);
          (env.pp, inst.onp, "tp", Mode.Unsafe);
          (env.pp, inst.onp, "checked", Mode.Checked);
          (env.pp, inst.onp, "sync", Mode.Synchronized);
        ])
    env.instances

let geomean l =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))
