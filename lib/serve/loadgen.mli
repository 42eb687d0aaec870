(** Multi-client load generator for {!Serve}: seeded open-loop arrivals,
    jittered exponential retry on [overloaded], optional kill/reconnect
    chaos, and a latency report over the full request lifetime (first send
    to final reply, retries included).

    Every client is deterministic given [seed]: arrival gaps, the
    bench mix, and chaos kills all derive from per-client seeded
    streams, so a failing run can be replayed exactly.

    Accounting invariant: every issued request ends in exactly one bucket —
    [ok], [stalled], [cancelled], [failed], [rejected], [shutdown_replies],
    [give_ups], [killed], or [lost] — so [accounted r = r.sent] is the
    zero-lost-replies check the soak harness asserts. *)

type config = {
  socket_path : string;
  clients : int;
  requests_per_client : int;
  seed : int;
  mean_gap_ms : int;  (** mean of the exponential inter-arrival gap *)
  benches : string list;  (** cycled per request; ["spin"] allowed *)
  mode : string;
  scale : int;
  deadline_ms : int option;  (** per-request deadline sent to the server *)
  spin_ms : int;  (** busy-work for ["spin"] requests *)
  burst : int;
      (** extra back-to-back ["spin"] requests client 0 fires at start —
          the deterministic way to push the server past its admission
          watermark *)
  kill_every : int;
      (** [> 0]: a client abruptly closes its connection after every k-th
          send and reconnects (in-flight requests counted [killed]) *)
  max_retries : int;  (** retry budget per request on [overloaded] *)
  backoff_base_ms : int;
  backoff_cap_ms : int;
  wait_cap_s : float;  (** max wait for stragglers after the last send *)
  json_path : string option;
}

val default_config : socket_path:string -> config

type result = {
  sent : int;  (** unique requests issued (retries not re-counted) *)
  ok : int;
  shed_replies : int;  (** [overloaded] replies received *)
  retries : int;  (** re-sends performed after backoff *)
  give_ups : int;  (** retry budget exhausted *)
  stalled : int;
  cancelled : int;
  failed : int;
  rejected : int;  (** malformed / unknown-bench replies *)
  shutdown_replies : int;
  killed : int;  (** aborted by a chaos kill *)
  lost : int;  (** no reply within [wait_cap_s] — must be 0 *)
  protocol_errors : int;  (** unparseable replies — must be 0 *)
  digest_mismatches : int;
      (** ok replies whose digest disagreed with an earlier ok reply for the
          same (bench, input, mode, scale) — must be 0 *)
  reconnects : int;
  max_retry_hint_ms : int;
      (** largest [retry_after_ms] hint any shed carried *)
  latency : Latency.summary;  (** over [ok] requests *)
}

val accounted : result -> int
(** Sum of the terminal buckets; equals [sent] iff no reply was lost or
    double-counted. *)

val run : config -> (result, string) Stdlib.result
(** Run the whole load; blocks until every client finished.  Writes the
    [kind="serve"], [role="loadgen"] artifact when [json_path] is set.
    [Error] on bad configuration or when the server cannot be reached. *)

val result_to_json : config -> result -> Rpb_benchmarks.Bench_json.json
val summary_lines : result -> string list
(** Human-readable counter + percentile lines for the CLI. *)
