(* The SLO engine.  See slo.mli for the model; the short version:
   declarative latency/availability objectives are evaluated against
   cumulative (total, bad) readings extracted from kind="metrics"
   snapshots, burn = windowed-error-rate / error-budget over a fast and a
   slow window, and an Ok | Warn | Page machine escalates immediately but
   de-escalates one step per hysteresis run.  A process-global atomic
   level register gives the admission path an allocation-free read. *)

module J = Rpb_benchmarks.Bench_json

type objective =
  | Latency of { hist : string; pctl : float; target_ms : float }
  | Availability of { good : string list; bad : string list; target : float }

type spec = (string * objective) list

let objective_budget = function
  | Latency { pctl; _ } -> 1. -. (pctl /. 100.)
  | Availability { target; _ } -> 1. -. target

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

(* serve.shed is deliberately not in the default bad set: tightened
   admission sheds more, and counting those against the budget would feed
   the burn that tightened admission in the first place. *)
let default_good = [ "serve.ok" ]
let default_bad = [ "serve.failed"; "serve.stalled" ]

let parse_item item : (string * objective, string) result =
  let err fmt = Printf.ksprintf (fun m -> Stdlib.Error m) fmt in
  match String.split_on_char ':' item with
  | [ "latency"; hist; cond ] -> (
    let hist = String.trim hist in
    if hist = "" then err "%s: empty histogram name" item
    else
      match String.index_opt cond '<' with
      | None -> err "%s: latency condition must look like p95<50" item
      | Some i ->
        let pctl_s = String.sub cond 0 i in
        let target_s = String.sub cond (i + 1) (String.length cond - i - 1) in
        if String.length pctl_s < 2 || pctl_s.[0] <> 'p' then
          err "%s: percentile must look like p95" item
        else begin
          match
            ( float_of_string_opt
                (String.sub pctl_s 1 (String.length pctl_s - 1)),
              float_of_string_opt target_s )
          with
          | Some pctl, Some target_ms
            when pctl > 0. && pctl < 100. && target_ms > 0.
                 && Float.is_finite target_ms ->
            Stdlib.Ok
              ( Printf.sprintf "%s.p%g" hist pctl,
                Latency { hist; pctl; target_ms } )
          | Some pctl, _ when not (pctl > 0. && pctl < 100.) ->
            err "%s: percentile must be in (0, 100)" item
          | _ -> err "%s: bad latency target" item
        end)
  | [ "avail"; target_s ] -> (
    match float_of_string_opt target_s with
    | Some target when target > 0. && target < 1. ->
      Stdlib.Ok
        ( "availability",
          Availability { good = default_good; bad = default_bad; target } )
    | _ -> err "%s: availability target must be in (0, 1)" item)
  | [ "avail"; name; good_s; bad_s; target_s ] -> (
    let split s =
      List.filter (fun x -> x <> "")
        (List.map String.trim (String.split_on_char '+' s))
    in
    let name = String.trim name in
    match (split good_s, split bad_s, float_of_string_opt target_s) with
    | good, bad, Some target
      when name <> "" && good <> [] && bad <> [] && target > 0. && target < 1.
      ->
      Stdlib.Ok (name, Availability { good; bad; target })
    | _, _, _ ->
      err "%s: expected avail:NAME:GOOD+GOOD:BAD+BAD:TARGET with target in (0, 1)"
        item)
  | _ ->
    err "%s: expected latency:HIST:pQQ<MS or avail:TARGET or avail:NAME:GOOD:BAD:TARGET"
      item

let parse_spec s : (spec, string) result =
  let items =
    List.filter (fun x -> x <> "")
      (List.map String.trim (String.split_on_char ';' s))
  in
  if items = [] then Stdlib.Error "empty SLO spec"
  else begin
    let rec go acc = function
      | [] -> Stdlib.Ok (List.rev acc)
      | item :: rest -> (
        match parse_item item with
        | Stdlib.Error _ as e -> e
        | Stdlib.Ok ((name, _) as entry) ->
          if List.mem_assoc name acc then
            Stdlib.Error (Printf.sprintf "duplicate objective name %s" name)
          else go (entry :: acc) rest)
    in
    go [] items
  end

let spec_to_string spec =
  String.concat ";"
    (List.map
       (fun (name, obj) ->
         match obj with
         | Latency { hist; pctl; target_ms } ->
           Printf.sprintf "latency:%s:p%g<%g" hist pctl target_ms
         | Availability { good; bad; target }
           when name = "availability" && good = default_good
                && bad = default_bad ->
           Printf.sprintf "avail:%g" target
         | Availability { good; bad; target } ->
           Printf.sprintf "avail:%s:%s:%s:%g" name (String.concat "+" good)
             (String.concat "+" bad) target)
       spec)

(* ------------------------------------------------------------------ *)
(* Levels *)

type level = Ok | Warn | Page

let level_index = function Ok -> 0 | Warn -> 1 | Page -> 2
let level_of_index n = if n <= 0 then Ok else if n = 1 then Warn else Page
let level_name = function Ok -> "ok" | Warn -> "warn" | Page -> "page"

let status_name = function
  | Ok -> "ok"
  | Warn -> "degraded"
  | Page -> "unhealthy"

type params = {
  fast_s : float;
  slow_s : float;
  page_burn : float;
  warn_burn : float;
  hysteresis : int;
}

let default_params =
  { fast_s = 60.; slow_s = 3600.; page_burn = 14.4; warn_burn = 6.; hysteresis = 3 }

(* ------------------------------------------------------------------ *)
(* The engine *)

type verdict = {
  v_name : string;
  v_level : level;
  v_fast_burn : float;
  v_slow_burn : float;
  v_budget_remaining : float;
}

(* One cumulative (adjusted) reading; the ring is newest-first. *)
type sample = { s_t : float; s_total : float; s_bad : float }

type ostate = {
  o_budget : float;
  mutable o_ring : sample list;
  mutable o_level : level;
  mutable o_calm : int;
  (* Last raw reading and the offsets folding restarts into a monotone
     adjusted cumulative. *)
  mutable o_prev_raw : float * float;
  mutable o_off_total : float;
  mutable o_off_bad : float;
  mutable o_base : (float * float) option;
}

type t = {
  e_params : params;
  e_spec : spec;
  e_objs : ostate array;
  mutable e_started : float option;
  mutable e_verdicts : verdict list;
}

let create ?(params = default_params) spec =
  if spec = [] then invalid_arg "Slo.create: empty spec";
  if not (params.fast_s > 0. && params.slow_s >= params.fast_s) then
    invalid_arg "Slo.create: windows must satisfy 0 < fast <= slow";
  if params.hysteresis < 1 then invalid_arg "Slo.create: hysteresis < 1";
  {
    e_params = params;
    e_spec = spec;
    e_objs =
      Array.of_list
        (List.map
           (fun (_, obj) ->
             {
               o_budget = objective_budget obj;
               o_ring = [];
               o_level = Ok;
               o_calm = 0;
               o_prev_raw = (0., 0.);
               o_off_total = 0.;
               o_off_bad = 0.;
               o_base = None;
             })
           spec);
    e_started = None;
    e_verdicts = [];
  }

let params t = t.e_params
let spec t = t.e_spec

(* The newest ring sample at or before [edge]; when history is shorter
   than the window, the oldest sample — a truncated window beats no
   verdict during early uptime. *)
let window_base ring ~edge =
  match List.find_opt (fun s -> s.s_t <= edge) ring with
  | Some _ as hit -> hit
  | None ->
    let rec last = function
      | [] -> None
      | [ s ] -> Some s
      | _ :: rest -> last rest
    in
    last ring

(* Keep everything inside the slow window plus exactly one older sample
   as the window-edge baseline. *)
let prune ring ~edge =
  let rec go = function
    | [] -> []
    | s :: rest -> if s.s_t <= edge then [ s ] else s :: go rest
  in
  go ring

let burn_over o ~edge ~total ~bad =
  match window_base o.o_ring ~edge with
  | None -> 0.
  | Some b ->
    let d_total = total -. b.s_total and d_bad = bad -. b.s_bad in
    if d_total <= 0. || d_bad <= 0. then 0.
    else d_bad /. d_total /. o.o_budget

let feed t ~now_s ~started_s readings =
  if Array.length readings <> Array.length t.e_objs then
    invalid_arg "Slo.feed: one (total, bad) reading per objective";
  let restart =
    match t.e_started with
    | Some s0 -> Float.abs (started_s -. s0) > 1e-9
    | None -> false
  in
  t.e_started <- Some started_s;
  let p = t.e_params in
  let vs =
    List.mapi
      (fun i (name, _) ->
        let o = t.e_objs.(i) in
        let raw_total, raw_bad = readings.(i) in
        let prev_total, prev_bad = o.o_prev_raw in
        (* A restart (or a cumulative value going backwards, the same
           thing seen without started_s) folds the pre-restart totals
           into the offsets so adjusted readings stay monotone. *)
        if restart || raw_total < prev_total -. 1e-9 || raw_bad < prev_bad -. 1e-9
        then begin
          o.o_off_total <- o.o_off_total +. prev_total;
          o.o_off_bad <- o.o_off_bad +. prev_bad
        end;
        o.o_prev_raw <- (raw_total, raw_bad);
        let total = o.o_off_total +. raw_total
        and bad = o.o_off_bad +. raw_bad in
        if o.o_base = None then o.o_base <- Some (total, bad);
        let fast = burn_over o ~edge:(now_s -. p.fast_s) ~total ~bad in
        let slow = burn_over o ~edge:(now_s -. p.slow_s) ~total ~bad in
        (* Both windows must agree: the slow window says the burn is
           real, the fast window says it is still happening. *)
        let raw_level =
          if Float.min fast slow >= p.page_burn then Page
          else if Float.min fast slow >= p.warn_burn then Warn
          else Ok
        in
        if level_index raw_level >= level_index o.o_level then begin
          o.o_level <- raw_level;
          o.o_calm <- 0
        end
        else begin
          o.o_calm <- o.o_calm + 1;
          if o.o_calm >= p.hysteresis then begin
            o.o_level <- (match o.o_level with Page -> Warn | _ -> Ok);
            o.o_calm <- 0
          end
        end;
        o.o_ring <-
          { s_t = now_s; s_total = total; s_bad = bad }
          :: prune o.o_ring ~edge:(now_s -. p.slow_s);
        let base_total, base_bad = Option.get o.o_base in
        let cum_er =
          if total -. base_total > 0. then
            Float.max 0. (bad -. base_bad) /. (total -. base_total)
          else 0.
        in
        {
          v_name = name;
          v_level = o.o_level;
          v_fast_burn = fast;
          v_slow_burn = slow;
          v_budget_remaining = 1. -. (cum_er /. o.o_budget);
        })
      t.e_spec
  in
  t.e_verdicts <- vs;
  vs

let verdicts t = t.e_verdicts

let overall vs =
  List.fold_left
    (fun acc v -> if level_index v.v_level > level_index acc then v.v_level else acc)
    Ok vs

(* ------------------------------------------------------------------ *)
(* Snapshot extraction *)

let obj_fields = function Some (J.Obj fields) -> fields | _ -> []

let counter_sum fields names =
  List.fold_left
    (fun acc n ->
      match List.assoc_opt n fields with
      | Some (J.Int v) -> acc +. float_of_int v
      | Some (J.Float v) -> acc +. v
      | _ -> acc)
    0. names

(* (cumulative samples, cumulative samples at or above target): a bucket
   is bad only when its inclusive lower bound clears the target, so the
   straddling bucket is credited as good. *)
let hist_reading hists name target_ms =
  match List.assoc_opt name hists with
  | None -> (0., 0.)
  | Some h -> (
    try
      let count = float_of_int (J.get_int (J.member "count" h)) in
      let bad =
        List.fold_left
          (fun acc pair ->
            match J.get_list pair with
            | [ b; n ] ->
              let lo_ms = fst (Metrics.bucket_bounds_ns (J.get_int b)) *. 1e-6 in
              if lo_ms >= target_ms then acc +. float_of_int (J.get_int n)
              else acc
            | _ -> acc)
          0.
          (J.get_list (J.member "buckets" h))
      in
      (count, bad)
    with J.Parse_error _ -> (0., 0.))

let feed_snapshot t j =
  match J.member_opt "kind" j with
  | Some (J.Str "metrics") -> (
    try
      let now_s = J.get_float (J.member "ts_s" j) in
      let started_s =
        match J.member_opt "started_s" j with
        | Some (J.Float v) -> v
        | Some (J.Int v) -> float_of_int v
        | _ -> 0.
      in
      let counters = obj_fields (J.member_opt "counters" j) in
      let hists = obj_fields (J.member_opt "histograms" j) in
      let readings =
        Array.of_list
          (List.map
             (fun (_, obj) ->
               match obj with
               | Latency { hist; target_ms; _ } ->
                 hist_reading hists hist target_ms
               | Availability { good; bad; _ } ->
                 let g = counter_sum counters good
                 and b = counter_sum counters bad in
                 (g +. b, b))
             t.e_spec)
      in
      Some (feed t ~now_s ~started_s readings)
    with J.Parse_error _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The global level register: one atomic immediate, Recorder-style.  The
   admission path reads it per request; with no engine running it stays
   Ok and costs one load. *)

let current = Atomic.make 0

let current_level () =
  match Atomic.get current with 0 -> Ok | 1 -> Warn | _ -> Page

let set_current l = Atomic.set current (level_index l)
let reset_current () = Atomic.set current 0

let admission_scale = function Ok -> 1 | Warn -> 2 | Page -> 4

let effective_queue_cap l cap =
  match l with Ok -> cap | Warn -> max 1 (cap / 2) | Page -> max 1 (cap / 4)

(* ------------------------------------------------------------------ *)
(* JSON surfaces *)

let float_json v = if Float.is_finite v then J.Float v else J.Null

let verdict_json v =
  J.Obj
    [
      ("name", J.Str v.v_name);
      ("level", J.Str (level_name v.v_level));
      ("fast_burn", float_json v.v_fast_burn);
      ("slow_burn", float_json v.v_slow_burn);
      ("budget_remaining", float_json v.v_budget_remaining);
    ]

let health_json ~verdicts ~max_queue =
  let lvl = overall verdicts in
  J.Obj
    [
      ("schema_version", J.Int J.schema_version);
      ("kind", J.Str "health");
      ("status", J.Str (status_name lvl));
      ("level", J.Int (level_index lvl));
      ("objectives", J.List (List.map verdict_json verdicts));
      ( "admission",
        J.Obj
          [
            ("max_queue", J.Int max_queue);
            ("effective_max_queue", J.Int (effective_queue_cap lvl max_queue));
            ("retry_scale", J.Int (admission_scale lvl));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Offline replay *)

type replay = {
  r_fed : int;
  r_skipped : int;
  r_series : (float * verdict list) list;
  r_worst : level;
  r_final : verdict list;
}

let replay ?params spec docs =
  let t = create ?params spec in
  let fed = ref 0 and skipped = ref 0 in
  let series = ref [] in
  let worst = ref Ok in
  List.iter
    (fun d ->
      match feed_snapshot t d with
      | None -> incr skipped
      | Some vs ->
        incr fed;
        let ts =
          match J.member_opt "ts_s" d with
          | Some (J.Float v) -> v
          | Some (J.Int v) -> float_of_int v
          | _ -> 0.
        in
        series := (ts, vs) :: !series;
        let l = overall vs in
        if level_index l > level_index !worst then worst := l)
    docs;
  {
    r_fed = !fed;
    r_skipped = !skipped;
    r_series = List.rev !series;
    r_worst = !worst;
    r_final = verdicts t;
  }

let violated r =
  r.r_worst = Page
  || List.exists (fun v -> v.v_budget_remaining < 0.) r.r_final

let replay_to_json r ~params:p ~spec =
  let series_json =
    List.map
      (fun (ts, vs) ->
        J.Obj
          [
            ("ts_s", float_json ts);
            ("levels", J.List (List.map (fun v -> J.Int (level_index v.v_level)) vs));
            ("fast", J.List (List.map (fun v -> float_json v.v_fast_burn) vs));
            ("slow", J.List (List.map (fun v -> float_json v.v_slow_burn) vs));
          ])
      r.r_series
  in
  let objective_json (name, obj) =
    let final = List.find_opt (fun v -> v.v_name = name) r.r_final in
    J.Obj
      ([
         ("name", J.Str name);
         ("budget", float_json (objective_budget obj));
       ]
      @ match final with None -> [] | Some v -> [ ("final", verdict_json v) ])
  in
  J.Obj
    [
      ("schema_version", J.Int J.schema_version);
      ("kind", J.Str "slo");
      ( "params",
        J.Obj
          [
            ("fast_s", J.Float p.fast_s);
            ("slow_s", J.Float p.slow_s);
            ("page_burn", J.Float p.page_burn);
            ("warn_burn", J.Float p.warn_burn);
            ("hysteresis", J.Int p.hysteresis);
          ] );
      ("spec", J.Str (spec_to_string spec));
      ("snapshots", J.Int r.r_fed);
      ("skipped", J.Int r.r_skipped);
      ("worst", J.Str (level_name r.r_worst));
      ("violation", J.Bool (violated r));
      ("objectives", J.List (List.map objective_json spec));
      ("series", J.List series_json);
    ]
