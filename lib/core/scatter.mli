(** SngInd — single-valued indirect writes: [out.(offsets.(i)) <- src.(i)]
    (paper Sec. 5.1, Listing 6).

    The algorithm guarantees that offsets are unique, but neither a type
    system nor a cheap check can prove it, so the programmer picks a point on
    the fear spectrum:

    - {!unchecked} writes directly (Rust's [unsafe] pointer write,
      Listing 6d): fastest, {e scared} — a buggy offsets array silently
      corrupts [out].
    - {!checked} first validates that all offsets are unique and in range,
      the paper's [par_ind_iter_mut] (Listing 6f): {e comfortable} — a bug
      raises {!Duplicate_offset} at the call, at a price: on a 2-vCPU VM
      at P = 2, a checked scatter of a random permutation took 1.4–1.9×
      the unchecked one, and the checked benchmarks of [bench/perf]'s
      fear workload ran up to 14% slower than unsafe.
    - {!atomic} stores through atomic cells (Listing 6e): placates a
      data-race detector but validates nothing — still {e scared}.
    - {!mutexed} takes a striped lock around each write (mode [Locked]):
      the "unnecessary synchronization" variant of Sec. 7.4 — still
      {e scared}, and slow.

    All variants compute the same result on valid inputs. *)

open Rpb_pool

exception Duplicate_offset of int
(** [Duplicate_offset o] — offset value [o] appears more than once. *)

exception Offset_out_of_range of int
(** An offset falls outside [\[0, Array.length out)]. *)

type mode = Unchecked | Checked | Atomic | Locked

val mode_name : mode -> string
val all_modes : mode list

type check_strategy = Mark_table | Sort_based
(** How {!checked} validates [m] offsets against [n] slots.

    [Mark_table] (the default) makes two parallel passes over an [n]-cell
    [int] table cached across calls.  The first checks each offset's range
    and stamps its cell with a per-call epoch; the second counts the
    stamped cells in [\[0, n)].  The offsets are unique iff the count is
    [m].  Only on a mismatch does a sort run, to name the duplicated
    value.  O(n) extra space, O(n + m) work — every caller in this
    repository has [m = n].

    [Sort_based] range-checks in one parallel pass, then sorts a copy of
    the offsets and scans for adjacent duplicates: no table, O(m log m)
    work.  It is the reference strategy for tests and the ablation bench. *)

val validate_offsets :
  ?strategy:check_strategy -> Pool.t -> n:int -> int array -> unit
(** [validate_offsets pool ~n offsets] raises {!Offset_out_of_range} or
    {!Duplicate_offset} unless [offsets] is a duplicate-free array of
    values in [\[0, n)].  An input with both faults raises
    {!Offset_out_of_range}.  [Duplicate_offset o] names the smallest
    duplicated value.  Runs in parallel.  Default strategy: [Mark_table]. *)

val unchecked : Pool.t -> out:'a array -> offsets:int array -> src:'a array -> unit
(** Direct indirect scatter.  Offsets must be in range (bounds are always
    enforced — OCaml has no way to turn them off unsafely here without
    [Array.unsafe_set], which we use only after an explicit range check is
    the caller's obligation).  Uniqueness is NOT validated. *)

val checked :
  ?strategy:check_strategy -> Pool.t ->
  out:'a array -> offsets:int array -> src:'a array -> unit
(** The paper's [par_ind_iter_mut]: {!validate_offsets} then scatter.
    Validation completes before the first write, so when it raises, [out]
    is unchanged. *)

val atomic :
  Pool.t -> out:Rpb_prim.Atomic_array.t -> offsets:int array -> src:int array -> unit
(** Relaxed atomic stores into an atomic destination (integer payloads),
    Rust's [store(_, Relaxed)]: inline stores, no stub call. *)

val mutexed :
  ?stripes:int -> Pool.t -> out:'a array -> offsets:int array -> src:'a array -> unit
(** Striped-lock scatter: [stripes] spin locks (default 64), one
    {!Rpb_prim.Atomic_array.lock} word per padded row. *)

val scatter :
  mode -> Pool.t -> out:'a array -> offsets:int array -> src:'a array -> unit
(** Dispatch on [mode] for plain arrays.  [Atomic] requires an atomic
    destination and therefore raises [Invalid_argument] here — use {!atomic}
    with an {!Rpb_prim.Atomic_array.t} destination instead. *)

val gather : Pool.t -> src:'a array -> offsets:int array -> 'a array
(** The read-only dual [out.(i) = src.(offsets.(i))]: always safe (regular
    writes), included for completeness and for the benchmarks' read phases. *)

(** {1 Store-polymorphic scatter}

    The plain-array entry points above are the zero-cost path and are not
    routed through any abstraction.  {!Make} provides the same four modes
    over an abstract write store, so an instrumented store (rpb_check's
    shadow arrays) can observe every indirect write — destination index,
    source index — without the production path paying for it. *)

module type STORE = sig
  type 'a t

  val length : 'a t -> int

  val set : 'a t -> idx:int -> src:int -> 'a -> unit
  (** Write one element.  [idx] has been range-checked against {!length} by
      the caller; [src] identifies the write's origin (source position for
      SngInd, chunk id for RngInd). *)
end

module Make (S : STORE) : sig
  val unchecked :
    Pool.t -> out:'a S.t -> offsets:int array -> src:'a array -> unit

  val checked :
    ?strategy:check_strategy -> Pool.t ->
    out:'a S.t -> offsets:int array -> src:'a array -> unit

  val atomic : Pool.t -> out:'a S.t -> offsets:int array -> src:'a array -> unit
  (** Same access pattern as [unchecked]; atomicity (or its absence) is the
      store's representation choice.  Unlike the plain-array {!atomic}, this
      one is polymorphic, so {!scatter} can dispatch all four modes. *)

  val mutexed :
    ?stripes:int -> Pool.t ->
    out:'a S.t -> offsets:int array -> src:'a array -> unit

  val scatter :
    mode -> Pool.t -> out:'a S.t -> offsets:int array -> src:'a array -> unit
end
