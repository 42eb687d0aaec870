open Rpb_pool

exception Contains_sentinel

let encode pool s =
  String.iter (fun c -> if c = '\000' then raise Contains_sentinel) s;
  let t = s ^ "\000" in
  let n = String.length t in
  let sa = Suffix_array.build pool t in
  (* With a unique minimal sentinel, suffix order equals rotation order, and
     the last column is the character preceding each suffix. *)
  let out = Bytes.create n in
  Pool.parallel_for ~start:0 ~finish:n
    ~body:(fun i ->
      let p = sa.(i) in
      Bytes.unsafe_set out i (if p = 0 then t.[n - 1] else t.[p - 1]))
    pool;
  Bytes.unsafe_to_string out

let lf_mapping ?(checked = false) pool bwt =
  let n = String.length bwt in
  let keys = Rpb_core.Par_array.init pool n (fun i -> Char.code bwt.[i]) in
  (* Stable counting rank: row i's character lands at C[c] + occ(c, i),
     which is exactly LF(i). *)
  let lf = Rpb_parseq.Radix.rank_by_key pool ~keys ~buckets:256 in
  if checked then
    (* The ranks are a permutation by construction; the checked build
       validates that at run time (comfort, with overhead). *)
    Rpb_core.Scatter.validate_offsets pool ~n lf;
  lf

let distinct_chars mode pool s =
  let n = String.length s in
  match mode with
  | `Racy ->
    (* All racing writers store the same byte; any winner is correct.  The
       paper's point: nothing at the language level guarantees this stays
       benign under compilation. *)
    let present = Bytes.make 256 '\000' in
    Pool.parallel_for ~start:0 ~finish:n
      ~body:(fun i -> Bytes.unsafe_set present (Char.code s.[i]) '\001')
      pool;
    Array.init 256 (fun c -> Bytes.get present c = '\001')
  | `Atomic ->
    let present = Rpb_prim.Atomic_array.make 256 0 in
    Pool.parallel_for ~start:0 ~finish:n
      ~body:(fun i -> Rpb_prim.Atomic_array.set present (Char.code s.[i]) 1)
      pool;
    Array.init 256 (fun c -> Rpb_prim.Atomic_array.get present c = 1)

let decode ?checked pool bwt =
  let n = String.length bwt in
  if n = 0 then ""
  else begin
    if not (String.contains bwt '\000') then
      invalid_arg "Bwt.decode: input has no sentinel";
    let lf = lf_mapping ?checked pool bwt in
    let out = Bytes.create (n - 1) in
    (* Walk the cycle backwards from the sentinel-first row (row 0). *)
    let row = ref 0 in
    for k = n - 2 downto 0 do
      Bytes.unsafe_set out k bwt.[!row];
      row := lf.(!row)
    done;
    Bytes.unsafe_to_string out
  end
