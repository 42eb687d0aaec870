(** The differential oracle — every registered benchmark, three executors,
    element-wise output diffs, machine-readable verdicts.

    For each benchmark entry the oracle prepares an instance per executor,
    runs the sequential baseline to obtain the reference digest
    ([Common.snapshot]), then runs every parallel mode and diffs its digest
    element-wise against the reference.  The executors:

    - ["seq"]: the deterministic in-order executor (shuffle off) — the
      reference semantics;
    - ["shuffled"]: the deterministic executor with a seeded adversarial
      leaf/join order — catches order-sensitive code without any
      multi-domain nondeterminism;
    - ["pool"]: the real work-stealing pool on [threads] domains.

    A shadow self-check rides along: seeded valid scatter/chunk rounds under
    shadow instrumentation must report zero races (guarding against false
    positives), and one deliberately duplicated offset must be caught (the
    canary — guarding against silent false negatives in the detector
    itself). *)

type mismatch = { at : int; expected : int; actual : int }

type outcome = {
  bench : string;
  input : string;
  executor : string;  (** "seq" | "shuffled" | "pool" *)
  mode : string;  (** "unsafe" | "checked" | "sync" *)
  verified : bool;  (** the benchmark's own verifier *)
  equal : bool;  (** digest element-wise equal to the baseline's *)
  digest_len : int;
  mismatches : mismatch list;  (** at most {!max_reported_mismatches} *)
  error : string option;  (** exception escaping the run, if any *)
}

val max_reported_mismatches : int

type report = {
  seed : int;
  threads : int;
  scale : int;
  outcomes : outcome list;
  shadow_ops : int;  (** instrumented operations in the self-check *)
  shadow_writes : int;
  shadow_races : Shadow.race list;  (** races on {e valid} inputs: want [] *)
  canary_ok : bool;  (** the injected duplicate was detected *)
}

val run :
  ?threads:int ->
  ?scale:int ->
  ?bench:string ->
  ?policy:Rpb_pool.Pool.Policy.t ->
  seed:int ->
  unit ->
  report
(** [run ~seed ()] checks every registry benchmark ([?bench] restricts to
    one) on its default input at [scale] (default 0 — small inputs; this is
    a correctness harness, not a timing one).  [threads] (default 4) sizes
    the work-stealing executor; [policy] (default [Pool.Policy.default])
    parameterizes its scheduler — the deterministic ["seq"]/["shuffled"]
    executors are policy-free, so a policy-parameterized run diffs the
    policy's pool against the very same reference semantics. *)

val ok : report -> bool
(** All outcomes verified and equal, no shadow race on valid inputs, canary
    detected. *)

val summary : report -> string
(** Human-readable multi-line summary. *)

val to_json : report -> Rpb_benchmarks.Bench_json.json

val write_json : path:string -> report -> unit
(** Writes {!to_json} with [schema_version] and a [kind = "check"] marker. *)

(** {2 Fault sweep}

    The oracle's extension from "detects races" to "survives faults": every
    benchmark runs under seeded [Pool.Fault] schedules (task exceptions /
    scheduler delays and stalls / everything plus spawn failures), and each
    faulted run must either complete with the correct canonical digest or
    raise a clean structured error within the deadline — never hang, never
    return a torn-but-successful result — and leave the pool reusable. *)

type fault_schedule = {
  sched_name : string;
  sched_cfg : Rpb_pool.Pool.Fault.config;  (** [seed] is overridden per run *)
}

val fault_schedules : fault_schedule list
(** The built-in schedules: ["task-exn"], ["slow-sched"],
    ["mixed-degrade"]. *)

type fault_outcome = {
  f_bench : string;
  f_input : string;
  f_schedule : string;
  f_mode : string;
  f_fault_seed : int;
  f_completed : bool;  (** [run_par] returned normally *)
  f_raised : string option;  (** the clean structured error otherwise *)
  f_stalled : bool;  (** the raise was the deadline watchdog's [Stalled] *)
  f_digest_equal : bool;  (** meaningful when [f_completed] *)
  f_verified : bool;  (** meaningful when [f_completed] *)
  f_pool_reusable : bool;  (** a post-fault sanity run succeeded *)
  f_injected : int;  (** injections fired in [create] and the faulted run *)
  f_workers : int;
  f_requested_workers : int;  (** [> f_workers] iff [create] degraded *)
  f_elapsed_s : float;
}

type fault_report = {
  fr_seed : int;
  fr_threads : int;
  fr_scale : int;
  fr_deadline : float;
  fr_outcomes : fault_outcome list;
}

val fault_sweep :
  ?threads:int ->
  ?scale:int ->
  ?deadline:float ->
  ?bench:string ->
  ?policy:Rpb_pool.Pool.Policy.t ->
  seed:int ->
  unit ->
  fault_report
(** [fault_sweep ~seed ()] runs every registry benchmark ([?bench] restricts
    to one) under each schedule in {!fault_schedules}, rotating the
    fear-spectrum mode per schedule.  [deadline] (default 30 s) bounds each
    faulted run via [Pool.run ?deadline]; [policy] (default
    [Pool.Policy.default]) parameterizes the faulted pool's scheduler, so
    e.g. [steal_half] batch transfers can be exercised under injected
    faults.  Equal seeds give equal fault streams. *)

val fault_outcome_ok : fault_outcome -> bool
val fault_ok : fault_report -> bool
val fault_summary : fault_report -> string
val fault_to_json : fault_report -> Rpb_benchmarks.Bench_json.json

val write_fault_json : path:string -> fault_report -> unit
(** Writes {!fault_to_json} with [schema_version] and a [kind = "fault"]
    marker. *)
