(* Single-layer measurements: the host check that every run makes, and the
   pool / MultiQueue / scatter microbenchmarks of the traced run. *)

module Pool = Rpb_pool.Pool
module Mq = Rpb_mq.Multiqueue
module Scatter = Rpb_core.Scatter
module Stats = Rpb_obs.Stats

let now = Rpb_prim.Timing.now

let spin iters =
  let x = ref 0 in
  for i = 1 to iters do
    x := !x + (i land 7)
  done;
  ignore (Sys.opaque_identity !x)

(* [p] domains each spin the same fixed amount of work, against one domain
   spinning it alone: 1.0 when the host really runs [p] domains at once. *)
let par_efficiency ~p ~iters =
  let together k =
    let t0 = now () in
    let others = List.init (k - 1) (fun _ -> Domain.spawn (fun () -> spin iters)) in
    spin iters;
    List.iter Domain.join others;
    now () -. t0
  in
  Stats.median (Array.init 3 (fun _ -> together 1 /. together p))

(* Median over [batches] of the mean cost of one call of [f] in a batch of
   [n], in [unit] (seconds multiplied by it). *)
let per_call ?(batches = 5) ~n ~unit f =
  Stats.median
    (Array.init batches (fun _ ->
         let t0 = now () in
         for _ = 1 to n do
           f ()
         done;
         (now () -. t0) *. unit /. float_of_int n))

let nothing () = ()

let pool_run_empty_us pool ~n = per_call ~n ~unit:1e6 (fun () -> Pool.run pool nothing)

let pool_join_ns pool ~n =
  Pool.run pool (fun () ->
      per_call ~n ~unit:1e9 (fun () -> ignore (Pool.join pool nothing nothing)))

let pool_pfor_grain1_ns pool ~n =
  per_call ~n:1 ~unit:(1e9 /. float_of_int n) (fun () ->
      Pool.run pool (fun () ->
          Pool.parallel_for ~grain:1 ~start:0 ~finish:n ~body:ignore pool))

(* A whole MultiQueue scheduler run over one trivial task: its fixed cost,
   which includes spawning its worker domains. *)
let mq_run_empty_us ~p ~n =
  per_call ~n ~unit:1e6 (fun () ->
      let sched = Mq.Scheduler.create (Mq.create ~queues:(2 * p) ()) in
      Mq.Scheduler.push sched ~pri:0 0;
      Mq.Scheduler.run sched ~num_workers:p ~handler:(fun _ ~pri:_ _ -> ()))

let mq_push_pop_ns ~rng ~n =
  let q = Mq.create ~seed:(Rpb_prim.Rng.next rng) ~queues:8 () in
  let pris = Array.init n (fun _ -> Rpb_prim.Rng.int rng 1_000_000) in
  per_call ~n:1 ~unit:(1e9 /. float_of_int n) (fun () ->
      Array.iteri (fun i pri -> Mq.push q ~pri i) pris;
      while Mq.pop q <> None do
        ()
      done)

(* The SngInd scatter of a random permutation at P in each mode; returns
   (mode, ms, output correct) triples. *)
let scatter_ms pool ~rng ~n ~reps =
  let offsets = Rpb_prim.Rng.permutation rng n in
  let src = Array.init n Fun.id in
  List.map
    (fun (name, f) ->
      let out = Array.make n (-1) in
      let ms =
        per_call ~batches:reps ~n:1 ~unit:1e3 (fun () ->
            Pool.run pool (fun () -> f pool ~out ~offsets ~src))
      in
      let ok = Array.for_all Fun.id (Array.mapi (fun i o -> out.(o) = i) offsets) in
      (name, ms, ok))
    [
      ("unchecked", fun pool ~out ~offsets ~src -> Scatter.unchecked pool ~out ~offsets ~src);
      ("checked", fun pool ~out ~offsets ~src -> Scatter.checked pool ~out ~offsets ~src);
      ("mutexed", fun pool ~out ~offsets ~src -> Scatter.mutexed pool ~out ~offsets ~src);
    ]

(* The cost of recording one benchmark span, to turn a span count into an
   overhead estimate.  It discards what it records, so it runs before the
   traced run starts recording. *)
let span_ns ~n =
  Span.start ();
  let ns = per_call ~batches:3 ~n ~unit:1e9 (fun () -> Span.with_ "probe" nothing) in
  ignore (Span.stop ());
  ns
