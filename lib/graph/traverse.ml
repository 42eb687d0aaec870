open Rpb_pool
module Atomic_array = Rpb_prim.Atomic_array
module Scheduler = Rpb_mq.Multiqueue.Scheduler

(* MultiQueue lanes per worker. *)
let queues_per_worker = 4

(* Shared skeleton: relaxed-priority label-correcting search.  [dist] holds
   the best-known distances; a popped task (d, v) is stale if d exceeds the
   current label and is dropped, otherwise v's edges are relaxed and improved
   neighbours are (re)pushed at their new priority.  The relax loop reads
   the CSR arrays directly, unit weights when [weights] is [None]; every
   index it reads comes from [Csr.make]'s validated offsets and targets, so
   it reads without bounds checks. *)
let search pool (g : Csr.t) ~src ~weights =
  let offsets = g.offsets and targets = g.targets in
  let num_workers = Pool.size pool in
  let dist = Atomic_array.make g.n max_int in
  Atomic_array.set dist src 0;
  let mq =
    Rpb_mq.Multiqueue.create ~queues:(max 1 (queues_per_worker * num_workers)) ()
  in
  let sched = Scheduler.create mq in
  Scheduler.push sched ~pri:0 src;
  Scheduler.run ~pool sched ~num_workers ~handler:(fun sched ~pri:d v ->
      if d <= Atomic_array.unsafe_get dist v then
        for e = Array.unsafe_get offsets v to Array.unsafe_get offsets (v + 1) - 1 do
          let w = Array.unsafe_get targets e in
          let nd =
            match weights with
            | None -> d + 1
            | Some weights -> d + Array.unsafe_get weights e
          in
          (* [dist] only decreases, so the relaxed read is never below the
             current value: when [nd] does not beat it, the atomic
             priority-write (which returns the value it beat) would not
             either. *)
          if
            nd < Atomic_array.unsafe_get dist w
            && nd < Atomic_array.fetch_min dist w nd
          then Scheduler.push sched ~pri:nd w
        done);
  Atomic_array.to_array dist

let bfs pool g ~src = search pool g ~src ~weights:None

let sssp pool (g : Csr.t) ~src = search pool g ~src ~weights:g.weights
