(* dedup — remove duplicates via a concurrent hash set (paper Table 1, input:
   exponential; the Listing 8 data structure).  AW: inserts race through CAS.

   The synchronized switch replaces the lock-free table with striped-lock
   buckets — same semantics, lock-based arbitration. *)

open Rpb_core
open Rpb_pool

(* The synchronized build mirrors the lock-free table exactly — same linear
   probing over the same slot layout — but arbitration is a striped spin
   lock per slot region instead of CAS, the paper's "replace unsafe/lock-free
   with locking" configuration.  Each stripe's lock word has a padded
   [Atomic_array] row of its own. *)
type locked_table = { slots : int array; locks : Rpb_prim.Atomic_array.t }

let stripes = 256
let row = Rpb_prim.Atomic_array.cells_per_line

let locked_table n =
  {
    slots = Array.make (Rpb_prim.Util.ceil_pow2 (2 * n)) (-1);
    locks = Rpb_prim.Atomic_array.make (row * stripes) 0;
  }

(* Linear probing from slot [idx]; a top-level function, as
   [Chash.insert]'s, so an insert allocates no closure. *)
let rec locked_insert t k idx =
  let l = row * (idx land (stripes - 1)) in
  Rpb_prim.Atomic_array.lock t.locks l;
  let cur = t.slots.(idx) in
  if cur = -1 then begin
    t.slots.(idx) <- k;
    Rpb_prim.Atomic_array.unlock t.locks l
  end
  else begin
    Rpb_prim.Atomic_array.unlock t.locks l;
    if cur <> k then locked_insert t k ((idx + 1) land (Array.length t.slots - 1))
  end

(* Both tables are allocated once per prepared input and cleared between
   runs, so neither build pays a per-run allocation, as the paper's
   (intrusive, C-style) table does not.  The lock words are reset with the
   slots, so every run starts from the state of a fresh table. *)
let dedup_mutex pool t data =
  Pool.parallel_for ~start:0 ~finish:(Array.length t.slots)
    ~body:(fun i -> Array.unsafe_set t.slots i (-1))
    pool;
  for i = 0 to Rpb_prim.Atomic_array.length t.locks - 1 do
    Rpb_prim.Atomic_array.set t.locks i 0
  done;
  let mask = Array.length t.slots - 1 in
  Pool.parallel_for ~start:0 ~finish:(Array.length data)
    ~body:(fun i ->
      let k = data.(i) in
      locked_insert t k (Rpb_prim.Rng.hash64 k land mask))
    pool;
  Rpb_parseq.Pack.pack pool (fun x -> x <> -1) t.slots

let dedup_cas pool table data =
  Rpb_chash.Chash.clear pool table;
  Pool.parallel_for ~start:0 ~finish:(Array.length data)
    ~body:(fun i -> ignore (Rpb_chash.Chash.insert table data.(i)))
    pool;
  Rpb_chash.Chash.elements pool table

let entry : Common.entry =
  {
    name = "dedup";
    full_name = "remove duplicates";
    inputs = [ "exponential" ];
    patterns = Pattern.[ RO; Stride; AW ];
    dynamic = false;
    access_sites = Pattern.[ (RO, 1); (Stride, 2); (AW, 2) ];
    mode_note = "unsafe/checked: CAS hash table; sync: striped-lock buckets";
    prepare =
      (fun pool ~input ~scale ->
        if input <> "exponential" then invalid_arg "dedup: input must be exponential";
        let n = Common.scaled 10_000 scale in
        let rng = Rpb_prim.Rng.create 111 in
        let data = Array.init n (fun _ -> Rpb_prim.Rng.exponential_int rng ~mean:(n / 10)) in
        let expected =
          Array.of_list (List.sort_uniq compare (Array.to_list data))
        in
        let table = Rpb_chash.Chash.create ~capacity:n in
        let locked = locked_table n in
        let last = ref [||] in
        {
          Common.size = Printf.sprintf "%d keys (%d distinct)" n (Array.length expected);
          run_seq =
            (fun () ->
              let tbl = Hashtbl.create n in
              Array.iter (fun k -> Hashtbl.replace tbl k ()) data;
              last := Array.of_seq (Seq.map fst (Hashtbl.to_seq tbl)));
          run_par =
            (fun mode ->
              last :=
                match mode with
                | Mode.Unsafe | Mode.Checked -> dedup_cas pool table data
                | Mode.Synchronized -> dedup_mutex pool locked data);
          verify =
            (fun () ->
              let got = Array.copy !last in
              Array.sort compare got;
              got = expected);
          (* Element order out of the hash table is schedule-dependent; the
             sorted contents are not. *)
          snapshot = (fun () -> Common.digest_sorted !last);
        });
  }
