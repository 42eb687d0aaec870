(** Wall-clock timing helpers for the benchmark harness.

    Every timestamp comes from [CLOCK_MONOTONIC] (an allocation-free C stub),
    so durations can never go negative across NTP slews; the wall-clock epoch
    enters in exactly one place, {!epoch_of_monotonic_us}. *)

val monotonic_ns : unit -> int
(** Nanoseconds on the monotonic clock (arbitrary epoch, typically boot).
    Allocation-free — safe to call on scheduler hot paths and inside the
    flight recorder. *)

val now : unit -> float
(** Monotonic time in seconds. *)

val epoch_of_monotonic_us : float -> float
(** Map a monotonic microsecond timestamp onto the Unix epoch, using the
    wall-vs-monotonic offset sampled once at program start.  This is the only
    place the two clocks meet; use it when serializing human-facing
    timestamps (the Chrome-trace writer does). *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result with the elapsed seconds. *)

val best_of : repeats:int -> (unit -> 'a) -> 'a * float
(** [best_of ~repeats f] runs [f] [repeats] times and returns the last result
    together with the minimum elapsed time, the usual noise-robust estimator
    for microbenchmarks. *)

val mean_of : repeats:int -> (unit -> 'a) -> 'a * float
(** Like {!best_of} but reports the arithmetic-mean time, matching the paper's
    "report mean execution times" methodology (Sec. 7.1). *)
