(** Burrows–Wheeler transform — the paper's [bw] benchmark is the decoder.

    Encoding appends a unique sentinel (byte 0) and reads the last column of
    the sorted rotations off the suffix array.  Decoding builds the LF
    mapping with one parallel stable counting-rank pass (a SngInd phase: the
    rank scatter is unique by construction) and then walks the cycle — an
    inherently sequential pointer chase, as in PBBS. *)

open Rpb_pool

exception Contains_sentinel
(** Raised by {!encode} if the input already contains byte 0. *)

val encode : Pool.t -> string -> string
(** [encode pool s] returns the BWT of [s ^ "\x00"] (length [|s| + 1],
    containing exactly one 0 byte). *)

val decode : ?checked:bool -> Pool.t -> string -> string
(** Invert {!encode}.  [checked] (default false) routes the LF scatter
    through the validating scatter — the Fig. 5(a) switch for bw.  Raises
    [Invalid_argument] if the input has no sentinel byte. *)

val lf_mapping : ?checked:bool -> Pool.t -> string -> int array
(** The LF mapping of a BWT string (exposed for tests and benches): [lf.(i)]
    is the row preceding row [i] in the original text order. *)

val distinct_chars : [ `Racy | `Atomic ] -> Pool.t -> string -> bool array
(** The paper's Sec. 5.2 "benign race" example from the suffix-array code:
    mark which byte values occur in the string, every task writing the same
    value [true].  [`Racy] uses plain stores (what the C++ code did — rustc
    rejects it); [`Atomic] uses atomic stores (the sanctioned fix).  Both
    return the same answer here, which is exactly what makes the race look
    benign — and why it is a trap at the language level. *)
