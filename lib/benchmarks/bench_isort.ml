(* isort — integer sort: LSD radix with 8-bit digits (paper Table 1, input:
   exponential).  Every digit pass scatters through counting ranks (SngInd);
   the mode switch selects raw, validated, or atomic-store writes. *)

open Rpb_core

let radix_pass mode pool ~shift a =
  let n = Array.length a in
  let keys = Par_array.init pool n (fun i -> (a.(i) lsr shift) land 255) in
  let dest = Rpb_parseq.Radix.rank_by_key pool ~keys ~buckets:256 in
  match mode with
  | Mode.Unsafe ->
    let out = Array.make n 0 in
    Scatter.unchecked pool ~out ~offsets:dest ~src:a;
    out
  | Mode.Checked ->
    let out = Array.make n 0 in
    Scatter.checked pool ~out ~offsets:dest ~src:a;
    out
  | Mode.Synchronized ->
    (* Relaxed atomic stores (Listing 6e), inline like Rust's
       [store(_, Relaxed)]: payloads are ints, so the atomic destination
       applies directly. *)
    let out = Rpb_prim.Atomic_array.make n 0 in
    Scatter.atomic pool ~out ~offsets:dest ~src:a;
    Rpb_prim.Atomic_array.to_array out

let radix_sort_with_mode mode pool a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let max_key = Par_array.reduce pool max 0 a in
    let cur = ref (Array.copy a) in
    let shift = ref 0 in
    while max_key lsr !shift > 0 || !shift = 0 do
      cur := radix_pass mode pool ~shift:!shift !cur;
      shift := !shift + 8
    done;
    !cur
  end

let entry : Common.entry =
  {
    name = "isort";
    full_name = "integer sort (radix)";
    inputs = [ "exponential" ];
    patterns = Pattern.[ RO; Stride; SngInd; AW ];
    dynamic = false;
    access_sites = Pattern.[ (RO, 2); (Stride, 4); (SngInd, 2); (AW, 1) ];
    mode_note = "digit scatter: unsafe raw / checked validated / sync atomic stores";
    prepare =
      (fun pool ~input ~scale ->
        if input <> "exponential" then invalid_arg "isort: input must be exponential";
        let n = Common.scaled 10_000 scale in
        let rng = Rpb_prim.Rng.create 109 in
        let data = Array.init n (fun _ -> Rpb_prim.Rng.exponential_int rng ~mean:1_000_000) in
        let expected = Array.copy data in
        Array.sort compare expected;
        let last = ref [||] in
        {
          Common.size = Printf.sprintf "%d keys" n;
          run_seq =
            (fun () ->
              let out = Array.copy data in
              Array.sort compare out;
              last := out);
          run_par = (fun mode -> last := radix_sort_with_mode mode pool data);
          verify = (fun () -> !last = expected);
          snapshot = (fun () -> Array.copy !last);
        });
  }
