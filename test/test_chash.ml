(* Tests for the phase-concurrent hash set. *)

open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_insert_mem () =
  let t = Rpb_chash.Chash.create ~capacity:100 in
  Alcotest.(check bool) "fresh insert" true (Rpb_chash.Chash.insert t 42);
  Alcotest.(check bool) "duplicate insert" false (Rpb_chash.Chash.insert t 42);
  Alcotest.(check bool) "mem yes" true (Rpb_chash.Chash.mem t 42);
  Alcotest.(check bool) "mem no" false (Rpb_chash.Chash.mem t 43);
  Alcotest.(check int) "count" 1 (Rpb_chash.Chash.count t)

let test_many_inserts () =
  let n = 10_000 in
  let t = Rpb_chash.Chash.create ~capacity:n in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "fresh" true (Rpb_chash.Chash.insert t (i * 7))
  done;
  for i = 0 to n - 1 do
    Alcotest.(check bool) "present" true (Rpb_chash.Chash.mem t (i * 7))
  done;
  Alcotest.(check int) "count" n (Rpb_chash.Chash.count t)

let test_collision_heavy () =
  (* A tiny table forces long probe chains. *)
  let t = Rpb_chash.Chash.create ~capacity:8 in
  let keys = [ 3; 11; 19; 27; 35; 43 ] in
  List.iter (fun k -> ignore (Rpb_chash.Chash.insert t k)) keys;
  List.iter
    (fun k -> Alcotest.(check bool) "probe finds" true (Rpb_chash.Chash.mem t k))
    keys;
  Alcotest.(check bool) "absent" false (Rpb_chash.Chash.mem t 51)

let test_full_table_raises () =
  let t = Rpb_chash.Chash.create ~capacity:4 in
  (* capacity 4 -> 8 slots; the 9th distinct key must raise. *)
  let raised = ref false in
  (try
     for i = 0 to 16 do
       ignore (Rpb_chash.Chash.insert t i)
     done
   with Rpb_chash.Chash.Full -> raised := true);
  Alcotest.(check bool) "Full raised" true !raised

let test_negative_key_rejected () =
  let t = Rpb_chash.Chash.create ~capacity:4 in
  Alcotest.check_raises "negative" (Invalid_argument "Chash.insert: negative key")
    (fun () -> ignore (Rpb_chash.Chash.insert t (-1)));
  Alcotest.(check bool) "mem negative" false (Rpb_chash.Chash.mem t (-5))

let test_elements_and_clear () =
  with_pool 2 (fun pool ->
      Pool.run pool (fun () ->
          let t = Rpb_chash.Chash.create ~capacity:100 in
          List.iter (fun k -> ignore (Rpb_chash.Chash.insert t k)) [ 5; 1; 9 ];
          let elts = Rpb_chash.Chash.elements pool t in
          Array.sort compare elts;
          Alcotest.(check bool) "elements" true (elts = [| 1; 5; 9 |]);
          Rpb_chash.Chash.clear pool t;
          Alcotest.(check int) "cleared count" 0 (Rpb_chash.Chash.count t);
          Alcotest.(check bool) "cleared mem" false (Rpb_chash.Chash.mem t 5);
          Alcotest.(check bool) "reinsert" true (Rpb_chash.Chash.insert t 5)))

(* Concurrent semantics: across racing inserters, each distinct key is
   reported "fresh" exactly once, and all keys are found afterwards. *)
let test_concurrent_insert_exactly_once () =
  let nkeys = 20_000 in
  let t = Rpb_chash.Chash.create ~capacity:nkeys in
  let fresh_claims = Rpb_prim.Atomic_array.make nkeys 0 in
  let num_domains = 4 in
  let ds =
    List.init num_domains (fun d ->
        Domain.spawn (fun () ->
            (* Every domain inserts every key — maximal contention. *)
            let rng = Rpb_prim.Rng.create (900 + d) in
            for _ = 0 to (2 * nkeys) - 1 do
              let k = Rpb_prim.Rng.int rng nkeys in
              if Rpb_chash.Chash.insert t k then
                ignore (Rpb_prim.Atomic_array.fetch_and_add fresh_claims k 1)
            done))
  in
  List.iter Domain.join ds;
  let bad = ref 0 and inserted = ref 0 in
  for k = 0 to nkeys - 1 do
    let claims = Rpb_prim.Atomic_array.get fresh_claims k in
    if claims > 1 then incr bad;
    if claims = 1 then begin
      incr inserted;
      if not (Rpb_chash.Chash.mem t k) then incr bad
    end
  done;
  Alcotest.(check int) "no double-fresh, no lost keys" 0 !bad;
  Alcotest.(check int) "count matches fresh claims" !inserted
    (Rpb_chash.Chash.count t)

let test_parallel_dedup_usage () =
  (* The dedup benchmark shape: insert all, then snapshot distinct values. *)
  with_pool 3 (fun pool ->
      Pool.run pool (fun () ->
          let n = 30_000 in
          let rng = Rpb_prim.Rng.create 77 in
          let data = Array.init n (fun _ -> Rpb_prim.Rng.exponential_int rng ~mean:500) in
          let t = Rpb_chash.Chash.create ~capacity:n in
          Pool.parallel_for ~start:0 ~finish:n
            ~body:(fun i -> ignore (Rpb_chash.Chash.insert t data.(i)))
            pool;
          let got = Rpb_chash.Chash.elements pool t in
          Array.sort compare got;
          let expected =
            List.sort_uniq compare (Array.to_list data) |> Array.of_list
          in
          Alcotest.(check int) "distinct count" (Array.length expected)
            (Array.length got);
          Alcotest.(check bool) "distinct values" true (got = expected)))

(* An insert probes through a top-level function, so it allocates no
   closure: under one minor word per insert, amortized. *)
let test_insert_allocation () =
  let n = 50_000 in
  let t = Rpb_chash.Chash.create ~capacity:n in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Rpb_chash.Chash.insert t (i * 7)))
  done;
  let per_insert = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_insert >= 1.0 then
    Alcotest.failf "insert allocates %.2f minor words per call" per_insert

let prop_set_semantics =
  QCheck.Test.make ~name:"chash = Set over random workloads" ~count:40
    QCheck.(list (int_bound 500))
    (fun keys ->
      let t = Rpb_chash.Chash.create ~capacity:(List.length keys + 1) in
      let module S = Set.Make (Int) in
      let reference = ref S.empty in
      List.for_all
        (fun k ->
          let fresh_expected = not (S.mem k !reference) in
          reference := S.add k !reference;
          Rpb_chash.Chash.insert t k = fresh_expected && Rpb_chash.Chash.mem t k)
        keys
      && Rpb_chash.Chash.count t = S.cardinal !reference)

let () =
  Alcotest.run "rpb_chash"
    [
      ( "chash",
        [
          Alcotest.test_case "insert/mem" `Quick test_insert_mem;
          Alcotest.test_case "many inserts" `Quick test_many_inserts;
          Alcotest.test_case "collisions" `Quick test_collision_heavy;
          Alcotest.test_case "full raises" `Quick test_full_table_raises;
          Alcotest.test_case "negative key" `Quick test_negative_key_rejected;
          Alcotest.test_case "elements/clear" `Quick test_elements_and_clear;
          Alcotest.test_case "concurrent exactly-once" `Quick
            test_concurrent_insert_exactly_once;
          Alcotest.test_case "dedup usage" `Quick test_parallel_dedup_usage;
          Alcotest.test_case "insert allocation" `Quick test_insert_allocation;
          QCheck_alcotest.to_alcotest prop_set_semantics;
        ] );
    ]
