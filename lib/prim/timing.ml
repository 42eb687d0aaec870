(* All timestamps in this repo come from one clock: CLOCK_MONOTONIC, via the
   allocation-free C stub below.  [Unix.gettimeofday] is only consulted once,
   to fix the epoch offset that maps monotonic timestamps back onto wall-clock
   time for human-facing output (the Chrome-trace writer). *)

external monotonic_ns : unit -> int = "rpb_clock_monotonic_ns" [@@noalloc]

let now () = float_of_int (monotonic_ns ()) *. 1e-9

(* The one place the monotonic clock is pinned to the wall clock.  Computed
   once at module initialisation; every consumer (Chrome-trace serialization)
   goes through [epoch_of_monotonic_us] so the offset lives in exactly one
   place. *)
let epoch_offset_s =
  let wall = Unix.gettimeofday () in
  let mono = float_of_int (monotonic_ns ()) *. 1e-9 in
  wall -. mono

let epoch_of_monotonic_us us = us +. (epoch_offset_s *. 1e6)

let time f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  (x, t1 -. t0)

let best_of ~repeats f =
  assert (repeats > 0);
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeats do
    let x, dt = time f in
    if dt < !best then best := dt;
    result := Some x
  done;
  match !result with
  | Some x -> (x, !best)
  | None -> assert false

let mean_of ~repeats f =
  assert (repeats > 0);
  let total = ref 0.0 in
  let result = ref None in
  for _ = 1 to repeats do
    let x, dt = time f in
    total := !total +. dt;
    result := Some x
  done;
  match !result with
  | Some x -> (x, !total /. float_of_int repeats)
  | None -> assert false
