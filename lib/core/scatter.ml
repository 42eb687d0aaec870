open Rpb_pool

exception Duplicate_offset of int
exception Offset_out_of_range of int

type mode = Unchecked | Checked | Atomic | Mutexed

let mode_name = function
  | Unchecked -> "unchecked"
  | Checked -> "checked"
  | Atomic -> "atomic"
  | Mutexed -> "mutex"

let all_modes = [ Unchecked; Checked; Atomic; Mutexed ]

type check_strategy = Mark_table | Sort_based

let check_range pool ~n offsets =
  let bad = Atomic.make None in
  Pool.parallel_for ~start:0 ~finish:(Array.length offsets)
    ~body:(fun i ->
      let o = Array.unsafe_get offsets i in
      if o < 0 || o >= n then Atomic.set bad (Some o))
    pool;
  Option.iter (fun o -> raise (Offset_out_of_range o)) (Atomic.get bad)

let check_unique_sort _pool offsets =
  let copy = Array.copy offsets in
  Array.sort compare copy;
  for i = 1 to Array.length copy - 1 do
    if copy.(i - 1) = copy.(i) then raise (Duplicate_offset copy.(i))
  done

(* Mark-table strategy: two parallel passes, both touching each word once.

   Pass 1 (claim) stamps [slot.(o) <- epoch] for every in-range offset and
   records an out-of-range one in an atomic instead of writing it; that is
   raised after the join, so range errors win over duplicates.  Racing
   writers of a duplicated offset all store the same value, which OCaml's
   memory model makes a benign race.  Pass 2 (count) streams over
   [slot.(0 .. n-1)] and counts the cells stamped this call.  The m offsets
   stamp exactly as many distinct cells as they have distinct values, so
   they are unique iff the count is m (pigeonhole).  Only on a mismatch
   does the sort-based check run, to name the duplicated value.  Work is
   O(n + m), and the O(n) part is a sequential read; every caller in the
   tree has m = n.

   The table is cached across calls and never cleared: each call bumps the
   epoch on entry, so a stamp left by an earlier call — including one
   aborted mid-pass by a range error or a task exception — never equals the
   current epoch.  A grown table is a fresh zeroed array with the epoch
   reset to 0, so it too holds no current stamp.  Concurrent validations
   from different pools fall back to a private table (the [Mutex.try_lock]
   miss path) rather than serialize. *)
type mark_table = { mutable slot : int array; mutable epoch : int }

let mark_cache = { slot = [||]; epoch = 0 }
let mark_cache_lock = Mutex.create ()

(* Cells per leaf of the counting pass. *)
let count_block = 4096

let mark_check pool ~(slot : int array) ~epoch ~n offsets =
  let m = Array.length offsets in
  let bad = Atomic.make None in
  Pool.parallel_chunks ~start:0 ~finish:m
    ~body:(fun lo hi ->
      for i = lo to hi - 1 do
        let o = Array.unsafe_get offsets i in
        if o < 0 || o >= n then Atomic.set bad (Some o)
        else Array.unsafe_set slot o epoch
      done)
    pool;
  Option.iter (fun o -> raise (Offset_out_of_range o)) (Atomic.get bad);
  let stamped =
    Pool.parallel_for_reduce ~start:0
      ~finish:((n + count_block - 1) / count_block)
      ~body:(fun b ->
        let lo = b * count_block in
        let c = ref 0 in
        for j = lo to min n (lo + count_block) - 1 do
          if Array.unsafe_get slot j = epoch then incr c
        done;
        !c)
      ~combine:( + ) ~init:0 pool
  in
  if stamped <> m then begin
    check_unique_sort pool offsets;
    (* No duplicate in a sorted copy: [offsets] changed under us. *)
    invalid_arg "Scatter.validate_offsets: offsets mutated during validation"
  end

let check_mark pool ~n offsets =
  if Mutex.try_lock mark_cache_lock then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mark_cache_lock)
      (fun () ->
        if Array.length mark_cache.slot < n then begin
          mark_cache.slot <- Array.make n 0;
          mark_cache.epoch <- 0
        end;
        mark_cache.epoch <- mark_cache.epoch + 1;
        mark_check pool ~slot:mark_cache.slot ~epoch:mark_cache.epoch ~n
          offsets)
  else
    (* Another domain is validating with the shared table right now (two
       pools, or a validation nested inside another): use a throwaway. *)
    mark_check pool ~slot:(Array.make n 0) ~epoch:1 ~n offsets

let validate_offsets ?(strategy = Mark_table) pool ~n offsets =
  Pool.Recorder.span pool "scatter.validate" @@ fun () ->
  match strategy with
  | Mark_table -> check_mark pool ~n offsets
  | Sort_based ->
    check_range pool ~n offsets;
    check_unique_sort pool offsets

let length_check ~offsets ~src =
  if Array.length offsets <> Array.length src then
    invalid_arg "Scatter: offsets and src length mismatch"

let unchecked pool ~out ~offsets ~src =
  Pool.Recorder.span pool "scatter.unchecked" @@ fun () ->
  length_check ~offsets ~src;
  let n = Array.length out in
  Pool.parallel_for ~start:0 ~finish:(Array.length src)
    ~body:(fun i ->
      let o = Array.unsafe_get offsets i in
      if o < 0 || o >= n then raise (Offset_out_of_range o);
      Array.unsafe_set out o (Array.unsafe_get src i))
    pool

let checked ?strategy pool ~out ~offsets ~src =
  length_check ~offsets ~src;
  validate_offsets ?strategy pool ~n:(Array.length out) offsets;
  unchecked pool ~out ~offsets ~src

let atomic pool ~out ~offsets ~src =
  length_check ~offsets ~src;
  let n = Rpb_prim.Atomic_array.length out in
  Pool.parallel_for ~start:0 ~finish:(Array.length src)
    ~body:(fun i ->
      let o = Array.unsafe_get offsets i in
      if o < 0 || o >= n then raise (Offset_out_of_range o);
      Rpb_prim.Atomic_array.unsafe_set out o (Array.unsafe_get src i))
    pool

let mutexed ?(stripes = 64) pool ~out ~offsets ~src =
  length_check ~offsets ~src;
  assert (stripes > 0);
  let locks = Array.init stripes (fun _ -> Mutex.create ()) in
  let n = Array.length out in
  Pool.parallel_for ~start:0 ~finish:(Array.length src)
    ~body:(fun i ->
      let o = Array.unsafe_get offsets i in
      if o < 0 || o >= n then raise (Offset_out_of_range o);
      let m = locks.(o mod stripes) in
      Mutex.lock m;
      Array.unsafe_set out o (Array.unsafe_get src i);
      Mutex.unlock m)
    pool

let scatter mode pool ~out ~offsets ~src =
  match mode with
  | Unchecked -> unchecked pool ~out ~offsets ~src
  | Checked -> checked pool ~out ~offsets ~src
  | Mutexed -> mutexed pool ~out ~offsets ~src
  | Atomic ->
    invalid_arg "Scatter.scatter: Atomic mode needs Scatter.atomic"

let gather pool ~src ~offsets =
  let n = Array.length src in
  Par_array.init pool (Array.length offsets) (fun i ->
      let o = Array.unsafe_get offsets i in
      if o < 0 || o >= n then raise (Offset_out_of_range o);
      Array.unsafe_get src o)

(* ------------------------------------------------------------------ *)
(* Store-polymorphic scatter.

   The plain-array entry points above stay exactly as they are — that is the
   zero-cost path the paper prices.  [Make] re-expresses all four modes over
   an abstract write store so a checking layer (rpb_check's shadow arrays)
   can observe every indirect write without this module knowing about it.
   The store receives the destination index *and* the source index of each
   write, which is what lets a detector report both offending positions of a
   duplicated offset. *)

module type STORE = sig
  type 'a t

  val length : 'a t -> int

  val set : 'a t -> idx:int -> src:int -> 'a -> unit
  (** Write one element.  [idx] has already been range-checked against
      {!length} by the caller; [src] identifies where the value came from
      (source position for SngInd, chunk id for RngInd). *)
end

module Make (S : STORE) = struct
  let unchecked pool ~out ~offsets ~src =
    Pool.Recorder.span pool "scatter.unchecked" @@ fun () ->
    length_check ~offsets ~src;
    let n = S.length out in
    Pool.parallel_for ~start:0 ~finish:(Array.length src)
      ~body:(fun i ->
        let o = Array.unsafe_get offsets i in
        if o < 0 || o >= n then raise (Offset_out_of_range o);
        S.set out ~idx:o ~src:i (Array.unsafe_get src i))
      pool

  let checked ?strategy pool ~out ~offsets ~src =
    length_check ~offsets ~src;
    validate_offsets ?strategy pool ~n:(S.length out) offsets;
    unchecked pool ~out ~offsets ~src

  (* Over an abstract store the "atomic" mode is the same access pattern as
     [unchecked] — atomicity is the store's representation choice, and it
     validates nothing, which is exactly the point the paper makes about
     placating a race detector. *)
  let atomic pool ~out ~offsets ~src =
    Pool.Recorder.span pool "scatter.atomic" @@ fun () ->
    length_check ~offsets ~src;
    let n = S.length out in
    Pool.parallel_for ~start:0 ~finish:(Array.length src)
      ~body:(fun i ->
        let o = Array.unsafe_get offsets i in
        if o < 0 || o >= n then raise (Offset_out_of_range o);
        S.set out ~idx:o ~src:i (Array.unsafe_get src i))
      pool

  let mutexed ?(stripes = 64) pool ~out ~offsets ~src =
    length_check ~offsets ~src;
    assert (stripes > 0);
    let locks = Array.init stripes (fun _ -> Mutex.create ()) in
    let n = S.length out in
    Pool.parallel_for ~start:0 ~finish:(Array.length src)
      ~body:(fun i ->
        let o = Array.unsafe_get offsets i in
        if o < 0 || o >= n then raise (Offset_out_of_range o);
        let m = locks.(o mod stripes) in
        Mutex.lock m;
        S.set out ~idx:o ~src:i (Array.unsafe_get src i);
        Mutex.unlock m)
      pool

  let scatter mode pool ~out ~offsets ~src =
    match mode with
    | Unchecked -> unchecked pool ~out ~offsets ~src
    | Checked -> checked pool ~out ~offsets ~src
    | Atomic -> atomic pool ~out ~offsets ~src
    | Mutexed -> mutexed pool ~out ~offsets ~src
end
