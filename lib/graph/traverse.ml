open Rpb_pool

(* Shared skeleton: relaxed-priority label-correcting search.  [dist] holds
   the best-known distances; a popped task (d, v) is stale if d exceeds the
   current label and is dropped, otherwise v's edges are relaxed and improved
   neighbours are (re)pushed at their new priority. *)
(* MultiQueue lanes per worker. *)
let queues_per_worker = 4

let search pool g ~src ~relax_weight =
  let n = Csr.n g in
  let num_workers = Pool.size pool in
  let dist = Rpb_prim.Atomic_array.make n max_int in
  Rpb_prim.Atomic_array.set dist src 0;
  let mq =
    Rpb_mq.Multiqueue.create ~queues:(max 1 (queues_per_worker * num_workers)) ()
  in
  let sched = Rpb_mq.Multiqueue.Scheduler.create mq in
  Rpb_mq.Multiqueue.Scheduler.push sched ~pri:0 src;
  Rpb_mq.Multiqueue.Scheduler.run ~pool sched ~num_workers
    ~handler:(fun sched ~pri:d v ->
      if d <= Rpb_prim.Atomic_array.get dist v then
        Csr.iter_neighbors_w g v (fun w weight ->
            let nd = d + relax_weight weight in
            (* Atomic priority-write: returns the value it beat. *)
            let prev = Rpb_prim.Atomic_array.fetch_min dist w nd in
            if nd < prev then Rpb_mq.Multiqueue.Scheduler.push sched ~pri:nd w));
  Rpb_prim.Atomic_array.to_array dist

let bfs pool g ~src =
  search pool g ~src ~relax_weight:(fun _ -> 1)

let sssp pool g ~src =
  search pool g ~src ~relax_weight:Fun.id
