(** Service-level objectives over the live metrics plane: declarative
    targets, error-budget burn rates, and the alert state machine behind
    [rpb serve --slo], the [health] verb, and [rpb slo].

    {2 Objectives}

    Two shapes, both evaluated from [kind="metrics"] snapshot documents
    ({!Metrics.snapshot}) so the same estimator serves the live sampler
    thread and offline JSONL replay:

    - {e latency}: "p95 of histogram H stays under T ms".  A snapshot's
      log2 buckets give (cumulative requests, cumulative requests at or
      above T): a bucket counts as {e bad} when its inclusive lower bound
      is >= T, so the straddling bucket is credited as good — the
      estimator never over-reports a burn from bucket quantisation.
    - {e availability}: "good / (good + bad) stays above T" over named
      status counters.  The default [avail:] shorthand counts
      [serve.ok] good and [serve.failed] + [serve.stalled] bad;
      [serve.shed] is deliberately {e excluded}, because admission
      tightening on a page sheds more — counting sheds as budget burn
      would turn the control loop into a death spiral.

    {2 Burn rates}

    Google-SRE multi-window burn: over a window, [burn = error-rate /
    error-budget], where the budget fraction is [1 - target] for
    availability and [1 - pctl/100] for a latency percentile.  Burn 1.0
    consumes exactly the whole budget if sustained; the engine evaluates a
    {e fast} and a {e slow} window (defaults 60 s / 3600 s, scaled down
    for tests) against cumulative [(total, bad)] samples kept in a
    per-objective ring.  A window older than available history truncates
    to the oldest sample, so early-uptime verdicts use real data instead
    of reporting nothing.  Counter resets (server restart mid-JSONL, or
    [started_s] changing) re-baseline via per-objective offsets, so
    deltas never go negative.

    {2 The state machine}

    [Ok | Warn | Page] per objective: a level escalates immediately when
    {e both} windows exceed its threshold (the slow window says the burn
    is real, the fast window says it is still happening), and de-escalates
    one step only after [hysteresis] consecutive calmer evaluations — the
    damping that keeps admission control from oscillating between shed
    and restore at the threshold boundary.

    {2 The switch}

    The process-global {!current_level} register follows the
    {!Metrics}/Recorder switch discipline: reading it is one atomic load of
    an immediate value — no allocation — so the admission path can consult
    it per request whether or not any engine is running.  With no engine
    it stays [Ok] and admission behaves exactly as before. *)

type objective =
  | Latency of { hist : string; pctl : float; target_ms : float }
  | Availability of { good : string list; bad : string list; target : float }

type spec = (string * objective) list
(** Objectives with their display/gauge names, e.g.
    [("serve.exec_ms.p95", Latency ...)]. *)

val parse_spec : string -> (spec, string) result
(** Parse a [--slo SPEC] string: [;]-separated items, each either
    [latency:HIST:pQQ<MS] (e.g. [latency:serve.exec_ms:p95<50]),
    [avail:TARGET] (the serve-counter shorthand above, [TARGET] in
    (0,1)), or [avail:NAME:GOOD:BAD:TARGET] with [+]-separated counter
    lists.  Rejects empty specs, duplicate names and out-of-range
    numbers. *)

val spec_to_string : spec -> string
(** Canonical round-trip of {!parse_spec}. *)

val objective_budget : objective -> float
(** The error-budget fraction ([1 - target] / [1 - pctl/100]), > 0. *)

(** {1 Levels} *)

type level = Ok | Warn | Page

val level_index : level -> int
(** [Ok] 0, [Warn] 1, [Page] 2 — the encoding of the [slo.*.level]
    gauges and the health verb's [level] field. *)

val level_of_index : int -> level
val level_name : level -> string  (** ok / warn / page *)

val status_name : level -> string
(** The health-verb vocabulary: ok / degraded / unhealthy. *)

(** {1 Parameters} *)

type params = {
  fast_s : float;  (** fast window, seconds *)
  slow_s : float;  (** slow window, seconds *)
  page_burn : float;  (** both-window burn threshold for [Page] *)
  warn_burn : float;  (** both-window burn threshold for [Warn] *)
  hysteresis : int;
      (** consecutive calmer evaluations before stepping down one level *)
}

val default_params : params
(** 60 s / 3600 s windows, page at 14.4x, warn at 6x, hysteresis 3 — the
    SRE-workbook 1h-page/6h-warn thresholds with windows scaled to this
    system's test-time cadence. *)

(** {1 The engine} *)

type verdict = {
  v_name : string;
  v_level : level;
  v_fast_burn : float;
  v_slow_burn : float;
  v_budget_remaining : float;
      (** 1 - (cumulative error rate since the engine started) / budget:
          1.0 = untouched, 0 = exhausted, negative = overspent. *)
}

type t

val create : ?params:params -> spec -> t
val params : t -> params
val spec : t -> spec

val feed : t -> now_s:float -> started_s:float -> (float * float) array -> verdict list
(** Feed one cumulative reading [(total, bad)] per objective, in spec
    order.  [started_s] changing (or a cumulative value decreasing)
    re-baselines as a restart.  Returns the per-objective verdicts, in
    spec order.  The synthetic-feed surface the unit tests drive. *)

val feed_snapshot : t -> Rpb_benchmarks.Bench_json.json -> verdict list option
(** Extract readings from a [kind="metrics"] document and {!feed}.
    [None] (state unchanged) when the document is not a usable metrics
    snapshot. *)

val verdicts : t -> verdict list
(** The last evaluation ([[]] before the first feed). *)

val overall : verdict list -> level
(** Worst level across objectives ([Ok] for [[]]). *)

(** {1 The global level register} *)

val current_level : unit -> level
(** One atomic load, allocation-free; [Ok] unless an engine published
    otherwise. *)

val set_current : level -> unit
val reset_current : unit -> unit

val admission_scale : level -> int
(** Deterministic [retry_after_ms] multiplier: 1 / 2 / 4. *)

val effective_queue_cap : level -> int -> int
(** The tightened admission cap: full at [Ok], half at [Warn], quarter at
    [Page], never below 1. *)

(** {1 The health verb payload} *)

val health_json :
  verdicts:verdict list -> max_queue:int -> Rpb_benchmarks.Bench_json.json
(** The [kind="health"] document: overall [status]/[level], per-objective
    verdicts, and the admission block ([max_queue],
    [effective_max_queue], [retry_scale]) derived from {!overall}. *)

(** {1 Offline replay — the [rpb slo] CI gate} *)

type replay = {
  r_fed : int;  (** metrics snapshots evaluated *)
  r_skipped : int;  (** non-metrics documents ignored *)
  r_series : (float * verdict list) list;  (** chronological (ts, verdicts) *)
  r_worst : level;  (** highest level any evaluation reached *)
  r_final : verdict list;
}

val replay : ?params:params -> spec -> Rpb_benchmarks.Bench_json.json list -> replay
(** Feed every document in order through a fresh engine (restarts
    re-baseline exactly as live). *)

val violated : replay -> bool
(** The exit-4 predicate: the run ever paged, or any objective finished
    with its cumulative budget overspent. *)

val replay_to_json : replay -> params:params -> spec:spec -> Rpb_benchmarks.Bench_json.json
(** The [kind="slo"] artifact: parameters, per-objective final verdicts,
    and the burn-rate time series [rpb report] charts. *)
