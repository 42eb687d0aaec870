(** The unified [rpb report] dashboard.

    Merges every machine-readable artifact the harness emits — bench/perf
    documents ([kind="perf"], one per workload, or a [BENCH_pr*.json]
    trajectory of them one per line), [PROFILE_*.json] work/span reports,
    [CHECK_*.json] differential-oracle reports, [FAULT_*.json] fault sweeps
    and the serve and metrics documents — into one self-contained HTML
    page (inline CSS and SVG, light/dark from one set of custom properties)
    or a markdown digest suitable for a CI job summary.

    The paper's tables come from the bench/perf documents: Table 1 / Fig. 4
    (the seq, T{_1} and T{_P} medians and the T{_1}/T{_seq} and
    T{_P}/T{_seq} ratios per benchmark) and Fig. 5(a)/(b) (checked/unsafe
    and sync/unsafe).  The other sections carry per-benchmark
    work/span/parallelism from {!Sp_dag}, correctness and fault verdict
    tiles, serving latency and live metrics. *)

type source = { path : string; kind : string }
(** One input file and the document kind it classified as:
    ["perf" | "profile" | "check" | "fault" | "serve" | "metrics"],
    or ["jsonl"] for a multi-line stream. *)

type perf_bench = {
  name : string;
  scale : int;
  seq_ms : float;  (** median sequential baseline *)
  t1_ms : float;  (** median parallel code on one worker, unsafe switch *)
  tp_ms : float;  (** median on P workers, unsafe switch *)
  checked_ms : float;
  sync_ms : float;
  t1_over_seq : float;
  tp_over_seq : float;
  checked_over_unsafe : float;
  sync_over_unsafe : float;
      (** the document's ratios (medians of per-round ratios), as written *)
}
(** One row of a bench/perf document's [benchmarks] section. *)

type perf = {
  workload : string;
  p : int;
  ocaml : string;
  git_sha : string;
  host_ok : bool;
      (** [false]: the P domains did not run in parallel on the measuring
          host, so T{_P} is not comparable and is flagged as such *)
  seed : int;
  correct : bool;
  benches : perf_bench list;
}
(** A [kind="perf"] document of bench/perf: the paper's per-benchmark
    ratios for one workload. *)

type artifacts = {
  perfs : perf list;
  profiles : Profile.report list;
  checks : Rpb_benchmarks.Bench_json.json list;
  faults : Rpb_benchmarks.Bench_json.json list;
  serves : Rpb_benchmarks.Bench_json.json list;
      (** [kind="serve"] documents from [rpb serve] (role [server]) and
          [rpb loadgen] (role [loadgen]) — latency percentiles and
          robustness counters *)
  metrics : Rpb_benchmarks.Bench_json.json list;
      (** [kind="metrics"] live-metrics snapshots (the [stats] verb /
          [--metrics-json] JSONL format), in stream order — the
          dashboard's time-series section *)
  sources : source list;
  errors : (string * string) list;
      (** files skipped as unreadable/unparseable: [(path, message)] *)
}

val empty : artifacts

val classify_doc : Rpb_benchmarks.Bench_json.json -> string
(** The document's ["kind"] member; ["bench"] when absent (plain benchmark
    documents predate the kind tag). *)

val add_file : artifacts -> string -> artifacts
(** Parse and classify one file.  A file that fails whole-document parsing
    is retried as JSONL — one document per line, each classified on its
    own, which is how [--metrics-json] streams (snapshots interleaved with
    slow-request profiles) and [BENCH_pr*.json] perf trajectories load.
    I/O and parse failures, and documents of a kind the report cannot read
    (the plain benchmark records of [rpb stats --json], for one), land in
    {!artifacts.errors} instead of raising, so one bad artifact never sinks
    the report. *)

val load_files : string list -> artifacts
(** {!add_file} over the list, preserving order. *)

val summary : artifacts -> string
(** One line counting the documents of each kind. *)

(** {1 Rendering} *)

val to_html : artifacts -> string
(** The full self-contained dashboard. *)

val to_markdown : artifacts -> string
(** The digest: the summary line, then every non-empty section of the
    dashboard as markdown tables. *)

val write_html : path:string -> artifacts -> unit
