(* The unified `rpb report` dashboard.

   Merges every machine-readable artifact the harness emits — bench/perf
   documents (kind "perf": the paper's Table 1 / Fig. 4 and Fig. 5 ratios),
   PROFILE_*.json (work/span metrics), CHECK_*.json (differential oracle),
   FAULT_*.json (fault sweep), and the serve and metrics documents —
   into one self-contained HTML file: no external assets, inline CSS and SVG
   only, light and dark mode from one set of custom properties.  The same
   table of sections renders the markdown digest.

   Chart conventions follow the repo's dashboard style contract: categorical
   series colors are assigned in fixed slot order (at most three per chart),
   all text wears ink tokens (never a series color), lines are 2px with
   ringed >=8px markers, bars are thin with a rounded data end and a square
   baseline, grids are solid hairlines, every chart carries a legend when it
   has two or more series plus a <details> table view, and SVG marks get
   native <title> tooltips. *)

module J = Rpb_benchmarks.Bench_json

type source = { path : string; kind : string }

type perf_bench = {
  name : string;
  scale : int;
  seq_ms : float;
  t1_ms : float;
  tp_ms : float;
  checked_ms : float;
  sync_ms : float;
  t1_over_seq : float;
  tp_over_seq : float;
  checked_over_unsafe : float;
  sync_over_unsafe : float;
}

type perf = {
  workload : string;
  p : int;
  ocaml : string;
  git_sha : string;
  host_ok : bool;
  seed : int;
  correct : bool;
  benches : perf_bench list;
}

type artifacts = {
  perfs : perf list;
  profiles : Profile.report list;
  checks : J.json list;
  faults : J.json list;
  serves : J.json list;
  metrics : J.json list;
  sources : source list;
  errors : (string * string) list;  (* path, message *)
}

let empty =
  {
    perfs = [];
    profiles = [];
    checks = [];
    faults = [];
    serves = [];
    metrics = [];
    sources = [];
    errors = [];
  }

let classify_doc j =
  match J.member_opt "kind" j with
  | Some (J.Str k) -> k
  | _ -> "bench"

(* A number of a bench/perf document; NaN (written as null) stays NaN. *)
let num = function
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> Float.nan

let perf_of_json j =
  let meta = J.member "meta" j in
  let median key b =
    match J.member_opt key b with
    | Some c -> num (J.member "median" c)
    | None -> Float.nan
  in
  let bench b =
    {
      name = J.get_str (J.member "name" b);
      scale = J.get_int (J.member "scale" b);
      seq_ms = median "seq_ms" b;
      t1_ms = median "t1_ms" b;
      tp_ms = median "tp_ms" b;
      checked_ms = median "checked_ms" b;
      sync_ms = median "sync_ms" b;
      t1_over_seq = num (J.member "t1_over_seq" b);
      tp_over_seq = num (J.member "tp_over_seq" b);
      checked_over_unsafe = num (J.member "checked_over_unsafe" b);
      sync_over_unsafe = num (J.member "sync_over_unsafe" b);
    }
  in
  {
    workload = J.get_str (J.member "workload" j);
    p = J.get_int (J.member "p" meta);
    ocaml = J.get_str (J.member "ocaml" meta);
    git_sha = J.get_str (J.member "git_sha" meta);
    host_ok = J.get_bool (J.member "host_ok" meta);
    seed = J.get_int (J.member "seed" meta);
    correct = J.get_bool (J.member "correct" j);
    benches = List.map bench (J.get_list (J.member "benchmarks" j));
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A document of a kind the report has no reader for (the plain benchmark
   records of [rpb stats --json], an old "compare") raises like a malformed
   one; [add_file] skips it into errors. *)
let add_doc acc j =
  match classify_doc j with
  | "perf" -> { acc with perfs = perf_of_json j :: acc.perfs }
  | "profile" -> { acc with profiles = Profile.of_json j :: acc.profiles }
  | "check" -> { acc with checks = j :: acc.checks }
  | "fault" -> { acc with faults = j :: acc.faults }
  | "serve" -> { acc with serves = j :: acc.serves }
  | "metrics" -> { acc with metrics = j :: acc.metrics }
  | _ -> raise (J.Parse_error "no reader for this kind")

let add_file acc path =
  let skip msg = { acc with errors = (path, msg) :: acc.errors } in
  match read_file path with
  | exception Sys_error msg -> skip msg
  | content -> (
    match J.of_string content with
    | j -> (
      match add_doc acc j with
      | acc -> { acc with sources = { path; kind = classify_doc j } :: acc.sources }
      | exception J.Parse_error msg ->
        skip (Printf.sprintf "kind %s: %s" (classify_doc j) msg))
    | exception J.Parse_error msg -> (
      (* Not one document — maybe a JSONL stream (the --metrics-json
         format: snapshots interleaved with slow-request profiles; a
         BENCH_pr*.json perf trajectory, one workload per line).  Each
         line classifies on its own; the file parses if any line does. *)
      let add_line (acc, n) line =
        match add_doc acc (J.of_string line) with
        | acc -> (acc, n + 1)
        | exception J.Parse_error _ -> (acc, n)
      in
      match List.fold_left add_line (acc, 0) (String.split_on_char '\n' content) with
      | _, 0 -> skip msg
      | acc, _ -> { acc with sources = { path; kind = "jsonl" } :: acc.sources }))

let load_files paths =
  let a = List.fold_left add_file empty paths in
  {
    perfs = List.rev a.perfs;
    profiles = List.rev a.profiles;
    checks = List.rev a.checks;
    faults = List.rev a.faults;
    serves = List.rev a.serves;
    metrics = List.rev a.metrics;
    sources = List.rev a.sources;
    errors = List.rev a.errors;
  }

let summary a =
  Printf.sprintf
    "%d perf document(s), %d profile(s), %d check report(s), %d fault \
     report(s), %d serve report(s), %d metrics snapshot(s)"
    (List.length a.perfs) (List.length a.profiles) (List.length a.checks)
    (List.length a.faults) (List.length a.serves) (List.length a.metrics)

(* ------------------------------------------------------------------ *)
(* HTML helpers.                                                       *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ms ns = Printf.sprintf "%.3f" (ns /. 1e6)

(* Categorical slots 1-3 of the validated reference palette (the only slots
   cleared for all-pairs use), surfaces, inks and the status steps; dark
   values are the documented dark-surface steps, not an automatic flip. *)
let css =
  {css|
:root { color-scheme: light; }
body {
  margin: 0; background: var(--page);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--ink); line-height: 1.45;
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
main { max-width: 1080px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 22px; margin: 8px 0 2px; }
h2 { font-size: 17px; margin: 36px 0 4px; }
.sub { color: var(--ink-2); font-size: 13px; margin: 0 0 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin: 10px 0;
}
.cards { display: flex; flex-wrap: wrap; gap: 10px; }
.cards .card { margin: 0; }
table { border-collapse: collapse; font-size: 13px; width: 100%; }
th {
  text-align: left; color: var(--muted); font-weight: 600;
  border-bottom: 1px solid var(--baseline); padding: 4px 10px 4px 0;
}
td {
  padding: 3px 10px 3px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
td.l { font-variant-numeric: normal; }
.num { text-align: right; }
th.num { text-align: right; }
.tile { min-width: 128px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .hint { color: var(--muted); font-size: 11px; }
.badge {
  display: inline-block; font-size: 11px; font-weight: 600;
  border-radius: 999px; padding: 1px 8px; border: 1px solid var(--border);
}
.badge::before { margin-right: 4px; }
.badge.ok { color: var(--good); } .badge.ok::before { content: "✓"; }
.badge.bad { color: var(--critical); } .badge.bad::before { content: "✗"; }
.badge.warn { color: var(--serious); } .badge.warn::before { content: "▲"; }
.badge.flat { color: var(--ink-2); } .badge.flat::before { content: "•"; }
.legend { font-size: 12px; color: var(--ink-2); margin: 2px 0 6px; }
.legend .key {
  display: inline-block; width: 14px; height: 3px; border-radius: 2px;
  vertical-align: middle; margin: 0 4px 0 10px;
}
.grid-charts {
  display: grid; gap: 12px;
  grid-template-columns: repeat(auto-fill, minmax(300px, 1fr));
}
details { margin: 6px 0 0; }
summary { color: var(--muted); font-size: 12px; cursor: pointer; }
svg text { fill: var(--muted); font-size: 10px; font-family: inherit; }
svg .t { fill: var(--ink-2); font-size: 11px; }
footer { color: var(--muted); font-size: 12px; margin-top: 40px; }
code { font-size: 12px; }
|css}

let series_var = function
  | 0 -> "var(--series-1)"
  | 1 -> "var(--series-2)"
  | _ -> "var(--series-3)"

(* A small line chart: x thread counts, y values, <=3 series, solid hairline
   grid, 2px lines, r>=4 markers with a 2px surface ring, native <title>
   tooltips per marker. *)
let svg_line_chart ~w ~h ~x_label ~y_max ~series buf =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ml = 34 and mr = 10 and mt = 8 and mb = 26 in
  let pw = w - ml - mr and ph = h - mt - mb in
  let xs = List.concat_map (fun (_, pts) -> List.map fst pts) series in
  let x_min = List.fold_left min (List.hd xs) xs in
  let x_max = List.fold_left max (List.hd xs) xs in
  let x_span = max 1 (x_max - x_min) in
  let y_max = if y_max <= 0.0 then 1.0 else y_max in
  let px x = ml + ((x - x_min) * pw / x_span) in
  let py y = mt + ph - int_of_float (y /. y_max *. float_of_int ph) in
  pf {|<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">|} w h w h;
  (* y grid: ~4 clean divisions *)
  let step =
    let raw = y_max /. 4.0 in
    let mag = 10.0 ** Float.floor (Float.log10 (Float.max raw 1e-9)) in
    let n = raw /. mag in
    mag *. (if n <= 1.0 then 1.0 else if n <= 2.0 then 2.0 else if n <= 5.0 then 5.0 else 10.0)
  in
  let rec grid y =
    if y <= y_max +. 1e-9 then begin
      pf
        {|<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="var(--grid)" stroke-width="1"/>|}
        ml (py y) (w - mr) (py y);
      pf {|<text x="%d" y="%d" text-anchor="end">%g</text>|} (ml - 5)
        (py y + 3) y;
      grid (y +. step)
    end
  in
  grid 0.0;
  (* baseline + x ticks at the measured thread counts *)
  pf
    {|<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="var(--baseline)" stroke-width="1"/>|}
    ml (mt + ph) (w - mr) (mt + ph);
  List.sort_uniq compare xs
  |> List.iter (fun x ->
         pf {|<text x="%d" y="%d" text-anchor="middle">%d</text>|} (px x)
           (mt + ph + 13) x);
  pf {|<text x="%d" y="%d" text-anchor="middle">%s</text>|} (ml + (pw / 2))
    (h - 3) (html_escape x_label);
  List.iteri
    (fun i (name, pts) ->
      let color = series_var i in
      let path =
        String.concat " "
          (List.mapi
             (fun j (x, y, _) ->
               Printf.sprintf "%s%d %d" (if j = 0 then "M" else "L") (px x)
                 (py y))
             (List.map (fun (x, (y, tip)) -> (x, y, tip)) pts))
      in
      pf
        {|<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>|}
        path color;
      List.iter
        (fun (x, (y, tip)) ->
          pf
            {|<circle cx="%d" cy="%d" r="4" fill="%s" stroke="var(--surface-1)" stroke-width="2"><title>%s: %s</title></circle>|}
            (px x) (py y) color (html_escape name) (html_escape tip))
        pts)
    series;
  pf "</svg>"

(* A thin horizontal bar from the left edge: square at the baseline, 4px
   rounded data end, value labelled at the tip in ink. *)
let svg_ratio_bar ~w ~ratio ~max_ratio ~color ~tip buf =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let h = 20 in
  let bar_h = 14 in
  let label_w = 46 in
  let pw = w - label_w in
  let len =
    max 3 (int_of_float (ratio /. max_ratio *. float_of_int (pw - 4)))
  in
  let y0 = (h - bar_h) / 2 in
  let r = 4 in
  pf {|<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">|} w h w h;
  (* reference line at ratio 1.0 *)
  let x1 = int_of_float (1.0 /. max_ratio *. float_of_int (pw - 4)) in
  pf
    {|<path d="M0 %d h%d a%d %d 0 0 1 %d %d v%d a%d %d 0 0 1 -%d %d h-%d Z" fill="%s"><title>%s</title></path>|}
    y0 (len - r) r r r r (bar_h - (2 * r)) r r r r (len - r) color
    (html_escape tip);
  pf
    {|<line x1="%d" y1="1" x2="%d" y2="%d" stroke="var(--baseline)" stroke-width="1"/>|}
    x1 x1 (h - 1);
  pf {|<text x="%d" y="%d" class="t">%.2fx</text>|} (len + 6) (y0 + bar_h - 3)
    ratio;
  pf "</svg>"


(* ------------------------------------------------------------------ *)
(* Section bodies.                                                     *)

(* The paper's tables, one block per bench/perf workload document.  The
   ratios are the document's own (medians of per-round ratios), never
   recomputed from the medians of the times. *)

let ratio x = Printf.sprintf "%.2f" x

let perf_header p =
  Printf.sprintf "%s: P=%d, OCaml %s, git %s, seed %d, host_ok %b%s" p.workload
    p.p p.ocaml p.git_sha p.seed p.host_ok
    (if p.correct then "" else ", FAILED CHECKS")

(* T_P is a parallel time: on a host where the P domains did not run in
   parallel it is not comparable, and its columns say so. *)
let tp_mark p = if p.host_ok then "" else " †"

let tp_note =
  "† host_ok false: the P domains did not run in parallel on this host, so \
   T_P is not comparable."

let perf_card buf p ~head ~row =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<div class=\"card\"><div class=\"t\" style=\"font-size:13px;color:var(--ink)\">%s</div>"
    (html_escape (perf_header p));
  pf "<table><tr><th>bench</th>%s</tr>" head;
  List.iter
    (fun b ->
      pf "<tr><td class=\"l\">%s</td>" (html_escape b.name);
      row b;
      pf "</tr>")
    p.benches;
  pf "</table>";
  if not p.host_ok then pf "<p class=\"sub\">%s</p>" (html_escape tp_note);
  pf "</div>"

let max_ratio rs = List.fold_left Float.max 2.0 (List.filter Float.is_finite rs)

let bar_cell buf ~ratio ~max_ratio ~color ~tip =
  Buffer.add_string buf "<td>";
  if Float.is_finite ratio then svg_ratio_bar ~w:220 ~ratio ~max_ratio ~color ~tip buf
  else Buffer.add_string buf "–";
  Buffer.add_string buf "</td>"

let table1_html buf a =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun p ->
      let mr = max_ratio (List.map (fun b -> b.t1_over_seq) p.benches) in
      let m = tp_mark p in
      perf_card buf p
        ~head:
          (Printf.sprintf
             "<th class=\"num\">scale</th><th class=\"num\">seq (ms)</th><th \
              class=\"num\">T<sub>1</sub> (ms)</th><th class=\"num\">T<sub>P</sub> \
              (ms)%s</th><th style=\"width:30%%\">T<sub>1</sub>/T<sub>seq</sub></th><th \
              class=\"num\">T<sub>P</sub>/T<sub>seq</sub>%s</th>"
             m m)
        ~row:(fun b ->
          pf
            "<td class=\"num\">%d</td><td class=\"num\">%.3f</td><td \
             class=\"num\">%.3f</td><td class=\"num\">%.3f</td>"
            b.scale b.seq_ms b.t1_ms b.tp_ms;
          bar_cell buf ~ratio:b.t1_over_seq ~max_ratio:mr ~color:(series_var 0)
            ~tip:(Printf.sprintf "%s: T1 is %.2fx the sequential time" b.name b.t1_over_seq);
          pf "<td class=\"num\">%s</td>" (ratio b.tp_over_seq)))
    a.perfs

let fig5_html buf a =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun p ->
      let mr =
        max_ratio
          (List.concat_map (fun b -> [ b.checked_over_unsafe; b.sync_over_unsafe ]) p.benches)
      in
      perf_card buf p
        ~head:
          (Printf.sprintf
             "<th class=\"num\">unsafe T<sub>P</sub> (ms)%s</th><th \
              class=\"num\">checked (ms)</th><th class=\"num\">sync (ms)</th><th \
              style=\"width:25%%\">checked/unsafe</th><th \
              style=\"width:25%%\">sync/unsafe</th>"
             (tp_mark p))
        ~row:(fun b ->
          pf "<td class=\"num\">%.3f</td><td class=\"num\">%.3f</td><td class=\"num\">%.3f</td>"
            b.tp_ms b.checked_ms b.sync_ms;
          bar_cell buf ~ratio:b.checked_over_unsafe ~max_ratio:mr ~color:(series_var 0)
            ~tip:(Printf.sprintf "%s: checked %.2fx the unsafe time" b.name b.checked_over_unsafe);
          bar_cell buf ~ratio:b.sync_over_unsafe ~max_ratio:mr ~color:(series_var 1)
            ~tip:(Printf.sprintf "%s: sync %.2fx the unsafe time" b.name b.sync_over_unsafe)))
    a.perfs;
  pf
    "<div class=\"legend\"><span class=\"key\" style=\"background:%s\"></span>checked \
     / unsafe<span class=\"key\" style=\"background:%s\"></span>sync / unsafe</div>"
    (series_var 0) (series_var 1)

(* [head] pairs each column title with whether it is a T_P column. *)
let perf_md buf a ~head ~row =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun p ->
      pf "### %s\n\n| bench | %s |\n|---|%s\n" (perf_header p)
        (String.concat " | "
           (List.map (fun (h, tp) -> if tp then h ^ tp_mark p else h) head))
        (String.concat "" (List.map (fun _ -> "---|") head));
      List.iter (fun b -> pf "| %s | %s |\n" b.name (String.concat " | " (row b))) p.benches;
      if not p.host_ok then pf "\n%s\n" tp_note;
      pf "\n")
    a.perfs

let table1_md buf a =
  perf_md buf a
    ~head:
      [
        ("scale", false); ("seq (ms)", false); ("T1 (ms)", false); ("TP (ms)", true);
        ("T1/Tseq", false); ("TP/Tseq", true);
      ]
    ~row:(fun b ->
      [
        string_of_int b.scale;
        Printf.sprintf "%.3f" b.seq_ms;
        Printf.sprintf "%.3f" b.t1_ms;
        Printf.sprintf "%.3f" b.tp_ms;
        ratio b.t1_over_seq;
        ratio b.tp_over_seq;
      ])

let fig5_md buf a =
  perf_md buf a
    ~head:
      [
        ("unsafe TP (ms)", true); ("checked (ms)", false); ("sync (ms)", false);
        ("checked/unsafe", false); ("sync/unsafe", false);
      ]
    ~row:(fun b ->
      [
        Printf.sprintf "%.3f" b.tp_ms;
        Printf.sprintf "%.3f" b.checked_ms;
        Printf.sprintf "%.3f" b.sync_ms;
        ratio b.checked_over_unsafe;
        ratio b.sync_over_unsafe;
      ])


(* Bodies of the other artifact kinds. *)

let profiles_html buf (profiles : Profile.report list) =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    "<div class=\"card\"><table><tr><th>bench</th><th>mode</th><th \
     class=\"num\">threads</th><th class=\"num\">work (ms)</th><th \
     class=\"num\">span (ms)</th><th class=\"num\">parallelism</th><th \
     class=\"num\">burdened</th><th class=\"num\">tasks</th><th \
     class=\"num\">steals</th><th class=\"num\">dropped</th><th></th></tr>";
  List.iter
    (fun (r : Profile.report) ->
      let m = r.Profile.metrics in
      pf
        "<tr><td class=\"l\">%s/%s</td><td class=\"l\">%s</td><td \
         class=\"num\">%d</td><td class=\"num\">%s</td><td \
         class=\"num\">%s</td><td class=\"num\">%.2f</td><td \
         class=\"num\">%.2f</td><td class=\"num\">%d</td><td \
         class=\"num\">%d</td><td class=\"num\">%d</td><td \
         class=\"l\">%s</td></tr>"
        (html_escape r.Profile.bench)
        (html_escape r.Profile.input)
        (html_escape r.Profile.mode)
        r.Profile.threads
        (ms (float_of_int m.Sp_dag.work_ns))
        (ms (float_of_int m.Sp_dag.span_ns))
        m.Sp_dag.parallelism m.Sp_dag.burdened_parallelism m.Sp_dag.tasks
        m.Sp_dag.steals m.Sp_dag.dropped
        (if r.Profile.verified then
           "<span class=\"badge ok\">verified</span>"
         else "<span class=\"badge bad\">verify failed</span>"))
    profiles;
  pf "</table></div>";
  (* Predicted speedup curves: burdened estimate vs DAG upper bound. *)
  pf "<div class=\"grid-charts\">";
  List.iter
    (fun (r : Profile.report) ->
      let m = r.Profile.metrics in
      let p_max = max 2 r.Profile.threads in
      let curve f label =
        List.init p_max (fun i ->
            let p = i + 1 in
            let v = f p in
            (p, (v, Printf.sprintf "%s at %d threads: %.2fx" label p v)))
      in
      let burdened = curve (Sp_dag.predicted_speedup m) "burdened" in
      let upper =
        curve
          (fun p -> Float.min (float_of_int p) m.Sp_dag.parallelism)
          "upper bound"
      in
      let y_max =
        List.fold_left
          (fun acc (_, (v, _)) -> Float.max acc v)
          1.0 (burdened @ upper)
      in
      pf "<div class=\"card\">";
      pf
        "<div class=\"t\" \
         style=\"font-size:13px;color:var(--ink)\">%s/%s</div><div \
         class=\"sub\">predicted speedup (mode %s)</div>"
        (html_escape r.Profile.bench)
        (html_escape r.Profile.input)
        (html_escape r.Profile.mode);
      svg_line_chart ~w:300 ~h:170 ~x_label:"threads"
        ~y_max:(y_max *. 1.15)
        ~series:[ ("burdened", burdened); ("upper bound", upper) ]
        buf;
      pf
        "<div class=\"legend\"><span class=\"key\" \
         style=\"background:%s\"></span>burdened estimate<span \
         class=\"key\" style=\"background:%s\"></span>DAG upper \
         bound</div>"
        (series_var 0) (series_var 1);
      pf "</div>")
    profiles;
  pf "</div>"

let get_int_opt key j =
  match J.member_opt key j with Some (J.Int i) -> Some i | _ -> None

let get_bool_or key default j =
  match J.member_opt key j with Some (J.Bool b) -> b | _ -> default


let checks_html buf checks =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun j ->
      let ok = get_bool_or "ok" false j in
      let outcomes =
        match J.member_opt "oracle" j with
        | Some (J.List l) -> l
        | _ -> []
      in
      let failing =
        List.filter
          (fun o ->
            not
              (get_bool_or "verified" false o
               && get_bool_or "equal" false o
               && J.member_opt "error" o = Some J.Null))
          outcomes
      in
      let shadow = J.member_opt "shadow" j in
      pf "<div class=\"cards\">";
      pf
        "<div class=\"card tile\"><div class=\"label\">oracle \
         verdict</div><div class=\"value\">%s</div><div \
         class=\"hint\">seed %d, %d configurations</div></div>"
        (if ok then "<span class=\"badge ok\">OK</span>"
         else "<span class=\"badge bad\">FAIL</span>")
        (Option.value ~default:0 (get_int_opt "seed" j))
        (List.length outcomes);
      pf
        "<div class=\"card tile\"><div class=\"label\">failing \
         configurations</div><div class=\"value\">%d</div></div>"
        (List.length failing);
      (match shadow with
       | Some s ->
         let races =
           match J.member_opt "races" s with
           | Some (J.List l) -> List.length l
           | _ -> 0
         in
         pf
           "<div class=\"card tile\"><div class=\"label\">shadow \
            races</div><div class=\"value\">%d</div><div \
            class=\"hint\">%d instrumented ops; canary %s</div></div>"
           races
           (Option.value ~default:0 (get_int_opt "ops" s))
           (if get_bool_or "canary_ok" false s then "detected"
            else "MISSED")
       | None -> ());
      pf "</div>")
    checks


let faults_html buf faults =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun j ->
      let ok = get_bool_or "ok" false j in
      let runs =
        match J.member_opt "runs" j with Some (J.List l) -> l | _ -> []
      in
      let count p = List.length (List.filter p runs) in
      let completed = count (fun r -> get_bool_or "completed" false r) in
      let violations = count (fun r -> not (get_bool_or "ok" false r)) in
      let injected =
        List.fold_left
          (fun acc r -> acc + Option.value ~default:0 (get_int_opt "injected" r))
          0 runs
      in
      pf "<div class=\"cards\">";
      pf
        "<div class=\"card tile\"><div class=\"label\">fault \
         verdict</div><div class=\"value\">%s</div><div class=\"hint\">%d \
         runs, %d injections</div></div>"
        (if ok then "<span class=\"badge ok\">OK</span>"
         else "<span class=\"badge bad\">FAIL</span>")
        (List.length runs) injected;
      pf
        "<div class=\"card tile\"><div class=\"label\">completed with \
         clean digest</div><div class=\"value\">%d</div><div \
         class=\"hint\">%d failed cleanly</div></div>"
        completed
        (List.length runs - completed);
      pf
        "<div class=\"card tile\"><div class=\"label\">contract \
         violations</div><div class=\"value\">%d</div></div>"
        violations;
      pf "</div>")
    faults


(* Serving latency: kind="serve" documents from `rpb serve` (role=server)
   and `rpb loadgen` (role=loadgen).  Latency summaries are already in
   milliseconds; counters are a flat object of ints. *)
let serve_role j =
  match J.member_opt "role" j with Some (J.Str r) -> r | _ -> "?"

let serve_counter j name =
  match J.member_opt "counters" j with
  | Some counters -> (
    match J.member_opt name counters with
    | Some (J.Int n) -> n
    | _ -> 0)
  | None -> 0

(* (count, mean, p50, p95, p99, max) out of a latency-summary object. *)
let serve_latency j =
  let field = if serve_role j = "server" then "exec_latency" else "latency" in
  let num l name =
    match J.member_opt name l with
    | Some (J.Float f) -> f
    | Some (J.Int n) -> float_of_int n
    | _ -> 0.0
  in
  match J.member_opt field j with
  | Some l ->
    ( int_of_float (num l "count"), num l "mean_ms", num l "p50_ms",
      num l "p95_ms", num l "p99_ms", num l "max_ms" )
  | None -> (0, 0.0, 0.0, 0.0, 0.0, 0.0)


let serves_html buf serves =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    "<div class=\"card\"><table><tr><th>role</th><th \
     class=\"num\">n</th><th class=\"num\">mean (ms)</th><th \
     class=\"num\">p50</th><th class=\"num\">p95</th><th \
     class=\"num\">p99</th><th class=\"num\">max</th><th \
     class=\"num\">ok</th><th class=\"num\">shed</th><th \
     class=\"num\">stalled</th><th class=\"num\">cancelled</th><th \
     class=\"num\">failed</th><th class=\"num\">lost</th></tr>";
  List.iter
    (fun j ->
      let role = serve_role j in
      let n, mean, p50, p95, p99, mx = serve_latency j in
      let shed =
        serve_counter j (if role = "server" then "shed" else "shed_replies")
      in
      let badge_class = if serve_counter j "lost" > 0 then "bad" else "ok" in
      pf
        "<tr><td class=\"l\"><span class=\"badge %s\">%s</span></td><td \
         class=\"num\">%d</td><td class=\"num\">%.2f</td><td \
         class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td \
         class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td \
         class=\"num\">%d</td><td class=\"num\">%d</td><td \
         class=\"num\">%d</td><td class=\"num\">%d</td><td \
         class=\"num\">%d</td><td class=\"num\">%d</td></tr>"
        badge_class (html_escape role) n mean p50 p95 p99 mx
        (serve_counter j "ok") shed (serve_counter j "stalled")
        (serve_counter j "cancelled") (serve_counter j "failed")
        (serve_counter j "lost"))
    serves;
  pf "</table></div>"

(* Live metrics: kind="metrics" snapshots (the [stats] verb /
   --metrics-json JSONL format).  A snapshot stream becomes three time
   series over the snapshot sequence number: throughput (delta ok /
   delta wall time between consecutive snapshots), admission-queue
   occupancy (a probe gauge), and the p95 of the exec-latency histogram. *)
let m_float j name =
  match J.member_opt name j with
  | Some (J.Float f) -> f
  | Some (J.Int n) -> float_of_int n
  | _ -> 0.0

let m_counter j name =
  match J.member_opt "counters" j with
  | Some c -> (
    match J.member_opt name c with Some (J.Int n) -> n | _ -> 0)
  | None -> 0

let m_gauge j name =
  match J.member_opt "gauges" j with
  | Some g -> (
    match J.member_opt name g with
    | Some (J.Float f) -> Some f
    | Some (J.Int n) -> Some (float_of_int n)
    | _ -> None)
  | None -> None

let m_hist_field j hist field =
  match J.member_opt "histograms" j with
  | Some (J.Obj _ as hs) -> (
    match J.member_opt hist hs with
    | Some h -> (
      match J.member_opt field h with
      | Some (J.Float f) -> Some f
      | Some (J.Int n) -> Some (float_of_int n)
      | _ -> None)
    | None -> None)
  | _ -> None

(* Stream order: one server run is one [started_s]; within a run, [seq]. *)
let metrics_sorted metrics =
  List.stable_sort
    (fun a b ->
      compare (m_float a "started_s", m_float a "seq")
        (m_float b "started_s", m_float b "seq"))
    metrics

let metrics_series metrics =
  let snaps = Array.of_list (metrics_sorted metrics) in
  let throughput = ref [] and occupancy = ref [] and p95 = ref [] in
  Array.iteri
    (fun i s ->
      let x = i in
      if i > 0 then begin
        let prev = snaps.(i - 1) in
        let dt = m_float s "ts_s" -. m_float prev "ts_s" in
        if dt > 0. then begin
          let d = m_counter s "serve.ok" - m_counter prev "serve.ok" in
          if d >= 0 then
            let r = float_of_int d /. dt in
            throughput :=
              (x, (r, Printf.sprintf "snapshot %d: %.1f ok/s" x r))
              :: !throughput
        end
      end;
      (match m_gauge s "serve.occupancy" with
      | Some o when Float.is_finite o ->
        occupancy :=
          (x, (o, Printf.sprintf "snapshot %d: occupancy %.0f" x o))
          :: !occupancy
      | _ -> ());
      match m_hist_field s "serve.exec_ms" "p95_ms" with
      | Some p when Float.is_finite p && p > 0. ->
        p95 := (x, (p, Printf.sprintf "snapshot %d: p95 %.2f ms" x p)) :: !p95
      | _ -> ())
    snaps;
  (List.rev !throughput, List.rev !occupancy, List.rev !p95)


let metrics_html buf metrics =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<p class=\"sub\">%d snapshot(s).</p>" (List.length metrics);
  let throughput, occupancy, p95 = metrics_series metrics in
  let chart title y_label pts =
    if List.length pts >= 2 then begin
      pf "<div class=\"card\">";
      pf
        "<div class=\"t\" style=\"font-size:13px;color:var(--ink)\">%s</div>\
         <div class=\"sub\">%s</div>"
        (html_escape title) (html_escape y_label);
      let y_max =
        List.fold_left (fun acc (_, (y, _)) -> Float.max acc y) 0.0 pts
      in
      svg_line_chart ~w:300 ~h:170 ~x_label:"snapshot"
        ~y_max:(Float.max 1e-9 (y_max *. 1.15))
        ~series:[ (title, pts) ] buf;
      pf "</div>"
    end
  in
  pf "<div class=\"grid-charts\">";
  chart "throughput" "successful replies per second" throughput;
  chart "queue occupancy" "queued + in-flight requests" occupancy;
  chart "exec p95" "milliseconds" p95;
  pf "</div>";
  (* Final-snapshot summary: the counters and histogram totals the CI
     smoke job asserts against. *)
  match List.rev (metrics_sorted metrics) with
  | [] -> ()
  | last :: _ ->
    pf
      "<div class=\"card\"><details><summary>final snapshot (seq \
       %.0f)</summary><table><tr><th>counter</th><th \
       class=\"num\">value</th></tr>"
      (m_float last "seq");
    (match J.member_opt "counters" last with
    | Some (J.Obj fields) ->
      List.iter
        (fun (name, v) ->
          match v with
          | J.Int n ->
            pf
              "<tr><td class=\"l\"><code>%s</code></td><td \
               class=\"num\">%d</td></tr>"
              (html_escape name) n
          | _ -> ())
        fields
    | _ -> ());
    pf "</table>";
    pf
      "<table><tr><th>histogram</th><th class=\"num\">n</th><th \
       class=\"num\">p50</th><th class=\"num\">p95</th><th \
       class=\"num\">p99</th><th class=\"num\">max (ms)</th></tr>";
    (match J.member_opt "histograms" last with
    | Some (J.Obj fields) ->
      List.iter
        (fun (name, _) ->
          let f field =
            Option.value (m_hist_field last name field) ~default:0.
          in
          pf
            "<tr><td class=\"l\"><code>%s</code></td><td \
             class=\"num\">%.0f</td><td class=\"num\">%.2f</td><td \
             class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td \
             class=\"num\">%.2f</td></tr>"
            (html_escape name) (f "count") (f "p50_ms") (f "p95_ms")
            (f "p99_ms") (f "max_ms"))
        fields
    | _ -> ());
    pf "</table></details></div>"

let serves_md buf serves =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    "| role | n | mean (ms) | p50 | p95 | p99 | max | ok | shed | stalled \
     | cancelled | failed | lost |\n";
  pf "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun j ->
      let role = serve_role j in
      let n, mean, p50, p95, p99, mx = serve_latency j in
      let shed =
        serve_counter j (if role = "server" then "shed" else "shed_replies")
      in
      pf "| %s | %d | %.2f | %.2f | %.2f | %.2f | %.2f | %d | %d | %d | \
          %d | %d | %d |\n"
        role n mean p50 p95 p99 mx (serve_counter j "ok") shed
        (serve_counter j "stalled")
        (serve_counter j "cancelled")
        (serve_counter j "failed") (serve_counter j "lost"))
    serves

let metrics_md buf metrics =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sorted = metrics_sorted metrics in
  let last = List.hd (List.rev sorted) in
  pf
    "%d snapshot(s), final seq %.0f, uptime %.1fs: ok=%d shed=%d \
     rejected=%d stalled=%d cancelled=%d failed=%d slow_logged=%d"
    (List.length sorted) (m_float last "seq") (m_float last "uptime_s")
    (m_counter last "serve.ok") (m_counter last "serve.shed")
    (m_counter last "serve.rejected")
    (m_counter last "serve.stalled")
    (m_counter last "serve.cancelled")
    (m_counter last "serve.failed")
    (m_counter last "serve.slow_logged");
  (match
     ( m_hist_field last "serve.exec_ms" "p50_ms",
       m_hist_field last "serve.exec_ms" "p95_ms",
       m_hist_field last "serve.exec_ms" "p99_ms" )
   with
  | Some p50, Some p95, Some p99 ->
    pf "; exec p50/p95/p99 = %.2f/%.2f/%.2f ms" p50 p95 p99
  | _ -> ());
  pf "\n"

let profiles_md buf (profiles : Profile.report list) =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    "| bench | mode | threads | work (ms) | span (ms) | parallelism | \
     burdened | verified |\n";
  pf "|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun (r : Profile.report) ->
      let m = r.Profile.metrics in
      pf "| %s/%s | %s | %d | %s | %s | %.2f | %.2f | %s |\n"
        r.Profile.bench r.Profile.input r.Profile.mode r.Profile.threads
        (ms (float_of_int m.Sp_dag.work_ns))
        (ms (float_of_int m.Sp_dag.span_ns))
        m.Sp_dag.parallelism m.Sp_dag.burdened_parallelism
        (if r.Profile.verified then "yes" else "NO"))
    profiles

let verdicts_md buf docs =
  List.iter
    (fun j ->
      Printf.bprintf buf "verdict: **%s**\n\n"
        (if get_bool_or "ok" false j then "OK" else "FAIL"))
    docs

(* ------------------------------------------------------------------ *)
(* The dashboard: one table of sections, walked by both renderers.     *)

type section = {
  title : string;
  blurb : string;  (** HTML paragraph under the heading *)
  absent : string option;
      (** HTML card when the section has nothing to show; [None] omits the
          section entirely *)
  shown : artifacts -> bool;
  html : Buffer.t -> artifacts -> unit;
  md : Buffer.t -> artifacts -> unit;
}

let sections =
  let perf_absent =
    Some
      "No bench/perf document given — <code>sh bench/perf/run.sh WORKLOAD \
       --json FILE</code> writes one."
  in
  [
    {
      title = "Table 1 / Fig. 4: T1 and TP against sequential";
      blurb =
        "From bench/perf: per benchmark, the medians of the sequential \
         baseline, of the parallel code on one worker (T<sub>1</sub>) and on \
         P workers (T<sub>P</sub>), unsafe switch.  T<sub>1</sub>/T<sub>seq</sub> \
         is the strict zero-cost test (1.00 = free); the hairline marks 1.";
      absent = perf_absent;
      shown = (fun a -> a.perfs <> []);
      html = table1_html;
      md = table1_md;
    };
    {
      title = "Fig. 5(a)/(b): checked and sync against unsafe";
      blurb =
        "From bench/perf: run time of the checked (Fig.&nbsp;5(a)) and \
         synchronized (Fig.&nbsp;5(b)) modes relative to the unsafe switch on \
         P workers (1.00 = the safety was free).  The hairline marks 1.";
      absent = perf_absent;
      shown = (fun a -> a.perfs <> []);
      html = fig5_html;
      md = fig5_md;
    };
    {
      title = "Serving latency";
      blurb =
        "From <code>rpb serve</code> / <code>rpb loadgen</code>: request \
         latency percentiles (nearest-rank over successful replies) and the \
         robustness counters — sheds, stalls, cancellations and losses under \
         load.";
      absent = None;
      shown = (fun a -> a.serves <> []);
      html = (fun buf a -> serves_html buf a.serves);
      md = (fun buf a -> serves_md buf a.serves);
    };
    {
      title = "Live metrics";
      blurb =
        "From the serving layer's metrics plane (<code>rpb serve \
         --metrics-json</code> / the <code>stats</code> verb).  Throughput is \
         the delta of the <code>serve.ok</code> counter between consecutive \
         snapshots; latency percentiles interpolate inside log2(ns) histogram \
         buckets.";
      absent = None;
      shown = (fun a -> a.metrics <> []);
      html = (fun buf a -> metrics_html buf a.metrics);
      md = (fun buf a -> metrics_md buf a.metrics);
    };
    {
      title = "Work / span";
      blurb =
        "Per-benchmark DAG metrics from the flight recorder (<code>rpb \
         profile</code>): work T<sub>1</sub>, span T<sub>∞</sub>, parallelism \
         and the burdened parallelism left after measured steal delays.";
      absent = Some "No PROFILE_*.json artifacts given.";
      shown = (fun a -> a.profiles <> []);
      html = (fun buf a -> profiles_html buf a.profiles);
      md = (fun buf a -> profiles_md buf a.profiles);
    };
    {
      title = "Correctness: differential oracle";
      blurb =
        "CHECK_*.json: every benchmark under the deterministic sequential \
         executor, its shuffled variant and the work-stealing pool, digests \
         diffed element-wise; plus the shadow-array race-detector self-check.";
      absent = Some "No CHECK_*.json artifacts given.";
      shown = (fun a -> a.checks <> []);
      html = (fun buf a -> checks_html buf a.checks);
      md = (fun buf a -> verdicts_md buf a.checks);
    };
    {
      title = "Robustness: fault-injection sweep";
      blurb =
        "FAULT_*.json: seeded scheduler fault schedules; every run must \
         complete with the clean digest or fail cleanly before its deadline.";
      absent = Some "No FAULT_*.json artifacts given.";
      shown = (fun a -> a.faults <> []);
      html = (fun buf a -> faults_html buf a.faults);
      md = (fun buf a -> verdicts_md buf a.faults);
    };
  ]

let to_html a =
  let buf = Buffer.create (1 lsl 16) in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    {|<!DOCTYPE html><html lang="en"><head><meta charset="utf-8"><meta name="viewport" content="width=device-width, initial-scale=1"><title>rpb report</title><style>%s</style></head><body class="viz-root"><main>|}
    css;
  pf "<h1>rpb report</h1>";
  pf "<p class=\"sub\">Unified dashboard over %d artifact file(s): %s.</p>"
    (List.length a.sources) (html_escape (summary a));
  if a.errors <> [] then begin
    pf "<div class=\"card\">";
    List.iter
      (fun (path, msg) ->
        pf
          "<p class=\"sub\"><span class=\"badge warn\">skipped</span> \
           <code>%s</code>: %s</p>"
          (html_escape path) (html_escape msg))
      a.errors;
    pf "</div>"
  end;
  List.iter
    (fun s ->
      let shown = s.shown a in
      if shown || s.absent <> None then begin
        pf "<h2>%s</h2><p class=\"sub\">%s</p>" (html_escape s.title) s.blurb;
        match s.absent with
        | Some msg when not shown ->
          pf "<div class=\"card\"><p class=\"sub\">%s</p></div>" msg
        | _ -> s.html buf a
      end)
    sections;
  pf "<footer>sources:<br>";
  List.iter
    (fun s ->
      pf "<code>%s</code> (%s)<br>" (html_escape s.path)
        (html_escape s.kind))
    a.sources;
  pf "</footer></main></body></html>\n";
  Buffer.contents buf

let to_markdown a =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "# rpb report\n\n%d artifact file(s): %s.\n\n"
    (List.length a.sources) (summary a);
  List.iter
    (fun s ->
      if s.shown a then begin
        Printf.bprintf buf "## %s\n\n" s.title;
        s.md buf a;
        Buffer.add_char buf '\n'
      end)
    sections;
  Buffer.contents buf

let write_html ~path a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_html a))
