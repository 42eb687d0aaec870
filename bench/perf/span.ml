(* Benchmark-side spans for the traced run: name, start, end and the id of the
   enclosing span, kept in memory and written out when the run ends.  Spans
   are only ever recorded from the benchmark's main thread; the serve loops
   stamp raw times in their own arrays and the main thread turns them into
   spans afterwards (see [add]). *)

module Timing = Rpb_prim.Timing

type t = { id : int; parent : int; name : string; start_ns : int; end_ns : int }

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 1
let current = ref 0

let start () =
  enabled := true;
  recorded := [];
  next_id := 1;
  current := 0

let stop () =
  enabled := false;
  List.rev !recorded

let fresh () =
  let id = !next_id in
  incr next_id;
  id

(* [with_ name f] runs [f] inside a span that is a child of the innermost
   open one. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh () and parent = !current in
    current := id;
    let start_ns = Timing.monotonic_ns () in
    Fun.protect
      ~finally:(fun () ->
        recorded :=
          { id; parent; name; start_ns; end_ns = Timing.monotonic_ns () }
          :: !recorded;
        current := parent)
      f
  end

(* A span whose times were measured elsewhere; returns its id so children
   can be attached, or 0 when tracing is off. *)
let add ?(parent = !current) name ~start_ns ~end_ns =
  if not !enabled then 0
  else begin
    let id = fresh () in
    recorded := { id; parent; name; start_ns; end_ns } :: !recorded;
    id
  end

(* Per-name totals: (name, count, total ms, self ms), largest self first.
   Self time is a span's duration minus the durations of its children. *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0 in
      Hashtbl.replace child_ns s.parent (prev + (s.end_ns - s.start_ns)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = s.end_ns - s.start_ns in
      let self = dur - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0 in
      let n, tot, slf =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0, 0)
      in
      Hashtbl.replace by_name s.name (n + 1, tot + dur, slf + self))
    spans;
  Hashtbl.fold
    (fun name (n, tot, slf) acc ->
      (name, n, float_of_int tot /. 1e6, float_of_int slf /. 1e6) :: acc)
    by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let to_json ~workload ~seed spans =
  let open Rpb_benchmarks.Bench_json in
  let us ns = Float (float_of_int ns /. 1e3) in
  Obj
    [
      ("kind", Str "perf-trace");
      ("workload", Str workload);
      ("seed", Int seed);
      ( "spans",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("parent", Int s.parent);
                   ("name", Str s.name);
                   ("start_us", us s.start_ns);
                   ("end_us", us s.end_ns);
                 ])
             spans) );
    ]
