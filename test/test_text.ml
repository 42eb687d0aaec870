(* Tests for suffix arrays, LCP/LRS, and Burrows–Wheeler. *)

open Rpb_text
open Rpb_pool

let with_pool n f =
  let pool = Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let in_pool f = with_pool 3 (fun pool -> Pool.run pool (fun () -> f pool))

(* ---------- Suffix_array ---------- *)

let test_sa_banana () =
  in_pool (fun pool ->
      let sa = Suffix_array.build pool "banana" in
      Alcotest.(check bool) "banana" true (sa = [| 5; 3; 1; 0; 4; 2 |]))

let test_sa_tiny_cases () =
  in_pool (fun pool ->
      Alcotest.(check bool) "empty" true (Suffix_array.build pool "" = [||]);
      Alcotest.(check bool) "single" true (Suffix_array.build pool "x" = [| 0 |]);
      Alcotest.(check bool) "aa" true (Suffix_array.build pool "aa" = [| 1; 0 |]);
      Alcotest.(check bool) "ab" true (Suffix_array.build pool "ab" = [| 0; 1 |]);
      Alcotest.(check bool) "ba" true (Suffix_array.build pool "ba" = [| 1; 0 |]))

let test_sa_matches_naive_on_wiki () =
  in_pool (fun pool ->
      let s = Text_gen.wiki ~size:2000 ~seed:1 in
      let got = Suffix_array.build pool s in
      Alcotest.(check bool) "valid" true (Suffix_array.is_suffix_array s got);
      Alcotest.(check bool) "matches naive" true (got = Suffix_array.build_naive s))

let test_sa_periodic_worst_case () =
  in_pool (fun pool ->
      (* Highly repetitive input exercises many doubling rounds. *)
      let s = Text_gen.periodic ~size:4096 ~period:"ab" in
      let sa = Suffix_array.build pool s in
      Alcotest.(check bool) "valid" true (Suffix_array.is_suffix_array s sa);
      let s = Text_gen.periodic ~size:2048 ~period:"a" in
      let sa = Suffix_array.build pool s in
      (* All-equal characters: suffixes sort by decreasing start. *)
      Alcotest.(check bool) "all-a" true
        (Rpb_prim.Util.array_for_all_i (fun j p -> p = 2047 - j) sa))

let test_sa_checked_mode_agrees () =
  in_pool (fun pool ->
      let s = Text_gen.wiki ~size:3000 ~seed:2 in
      let a = Suffix_array.build ~mode:Suffix_array.Unchecked_scatter pool s in
      let b = Suffix_array.build ~mode:Suffix_array.Checked_scatter pool s in
      Alcotest.(check bool) "modes agree" true (a = b))

let test_sa_rank_of () =
  in_pool (fun pool ->
      let s = "mississippi" in
      let sa = Suffix_array.build pool s in
      let rank = Suffix_array.rank_of pool sa in
      Alcotest.(check bool) "inverse" true
        (Rpb_prim.Util.array_for_all_i (fun i r -> sa.(r) = i) rank))

let prop_sa_valid_on_random =
  QCheck.Test.make ~name:"suffix array valid on random strings" ~count:30
    QCheck.(pair small_nat (int_range 1 4))
    (fun (seed, alphabet) ->
      let s = Text_gen.random_bytes ~size:500 ~seed ~alphabet in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              Suffix_array.is_suffix_array s (Suffix_array.build pool s))))

(* ---------- Lcp / LRS ---------- *)

let test_lcp_banana () =
  in_pool (fun pool ->
      let s = "banana" in
      let sa = Suffix_array.build pool s in
      let lcp = Lcp.kasai pool s ~sa in
      (* suffixes: a, ana, anana, banana, na, nana *)
      Alcotest.(check bool) "lcp" true (lcp = [| 0; 1; 3; 0; 0; 2 |]))

let test_lrs_known () =
  in_pool (fun pool ->
      let r = Lcp.longest_repeated_substring pool "banana" in
      Alcotest.(check int) "banana ana" 3 r.Lcp.length;
      Alcotest.(check string) "substring repeats" "ana"
        (String.sub "banana" r.Lcp.position 3);
      let r = Lcp.longest_repeated_substring pool "abcdefg" in
      Alcotest.(check int) "no repeats" 0 r.Lcp.length;
      let r = Lcp.longest_repeated_substring pool "aaaa" in
      Alcotest.(check int) "aaaa" 3 r.Lcp.length)

let test_lrs_matches_naive () =
  in_pool (fun pool ->
      List.iter
        (fun seed ->
          let s = Text_gen.random_bytes ~size:300 ~seed ~alphabet:3 in
          let fast = (Lcp.longest_repeated_substring pool s).Lcp.length in
          Alcotest.(check int) "lrs = naive" (Lcp.lrs_naive s) fast)
        [ 1; 2; 3; 4; 5 ])

let test_lrs_substring_occurs_twice () =
  in_pool (fun pool ->
      let s = Text_gen.wiki ~size:4000 ~seed:3 in
      let r = Lcp.longest_repeated_substring pool s in
      Alcotest.(check bool) "has repeats" true (r.Lcp.length > 0);
      let sub = String.sub s r.Lcp.position r.Lcp.length in
      (* Count occurrences of sub in s. *)
      let count = ref 0 in
      for i = 0 to String.length s - r.Lcp.length do
        if String.sub s i r.Lcp.length = sub then incr count
      done;
      Alcotest.(check bool) "occurs at least twice" true (!count >= 2))

(* ---------- Bwt ---------- *)

let test_bwt_known () =
  in_pool (fun pool ->
      (* Standard example: BWT of "banana\0" is "annb\0aa". *)
      let b = Bwt.encode pool "banana" in
      Alcotest.(check string) "bwt" "annb\000aa" b)

let test_bwt_roundtrip () =
  in_pool (fun pool ->
      List.iter
        (fun s ->
          let decoded = Bwt.decode pool (Bwt.encode pool s) in
          Alcotest.(check string) ("roundtrip " ^ String.sub s 0 (min 10 (String.length s)))
            s decoded)
        [ "banana"; "a"; "ab"; "mississippi"; Text_gen.wiki ~size:5000 ~seed:4 ])

let test_bwt_checked_roundtrip () =
  in_pool (fun pool ->
      let s = Text_gen.wiki ~size:2000 ~seed:5 in
      Alcotest.(check string) "checked decode" s
        (Bwt.decode ~checked:true pool (Bwt.encode pool s)))

let test_bwt_rejects_sentinel_in_input () =
  in_pool (fun pool ->
      match Bwt.encode pool "ab\000cd" with
      | exception Bwt.Contains_sentinel -> ()
      | _ -> Alcotest.fail "sentinel input accepted")

let test_bwt_decode_requires_sentinel () =
  in_pool (fun pool ->
      match Bwt.decode pool "abcd" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "missing sentinel accepted")

let test_lf_mapping_is_permutation () =
  in_pool (fun pool ->
      let b = Bwt.encode pool "mississippi" in
      let lf = Bwt.lf_mapping pool b in
      let n = Array.length lf in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) lf;
      Alcotest.(check bool) "permutation" true (Array.for_all Fun.id seen))

let prop_bwt_roundtrip =
  QCheck.Test.make ~name:"BWT decode . encode = id" ~count:30
    QCheck.(pair small_nat (int_range 1 6))
    (fun (seed, alphabet) ->
      let s = Text_gen.random_bytes ~size:400 ~seed ~alphabet in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () -> Bwt.decode pool (Bwt.encode pool s) = s)))

(* ---------- Bwt benign race ---------- *)

let test_distinct_chars_modes_agree () =
  in_pool (fun pool ->
      let s = Rpb_text.Text_gen.wiki ~size:5_000 ~seed:23 in
      let racy = Rpb_text.Bwt.distinct_chars `Racy pool s in
      let atomic = Rpb_text.Bwt.distinct_chars `Atomic pool s in
      Alcotest.(check bool) "benign race = atomic result" true (racy = atomic);
      (* Oracle. *)
      let expected = Array.make 256 false in
      String.iter (fun c -> expected.(Char.code c) <- true) s;
      Alcotest.(check bool) "matches oracle" true (atomic = expected))

(* ---------- Text_gen ---------- *)

let test_text_gen_properties () =
  let s = Text_gen.wiki ~size:1000 ~seed:7 in
  Alcotest.(check int) "size" 1000 (String.length s);
  Alcotest.(check bool) "no NUL" false (String.contains s '\000');
  Alcotest.(check string) "deterministic" s (Text_gen.wiki ~size:1000 ~seed:7);
  Alcotest.(check bool) "seed matters" true (s <> Text_gen.wiki ~size:1000 ~seed:8);
  let p = Text_gen.periodic ~size:7 ~period:"abc" in
  Alcotest.(check string) "periodic" "abcabca" p;
  let r = Text_gen.random_bytes ~size:100 ~seed:1 ~alphabet:2 in
  Alcotest.(check bool) "alphabet respected" true
    (String.for_all (fun c -> c = 'a' || c = 'b') r)

(* ---------- Word_count ---------- *)

let test_tokenize () =
  Alcotest.(check (array string)) "basic"
    [| "hello"; "world" |]
    (Word_count.tokenize "Hello, WORLD!");
  Alcotest.(check (array string)) "empty" [||] (Word_count.tokenize "123 .,;");
  Alcotest.(check (array string)) "edges"
    [| "a"; "b" |]
    (Word_count.tokenize "a1b")

let test_word_count_known () =
  in_pool (fun pool ->
      let got = Word_count.count pool "the cat and the dog and the bird" in
      Alcotest.(check bool) "counts" true
        (got = [| ("and", 2); ("bird", 1); ("cat", 1); ("dog", 1); ("the", 3) |]))

let test_word_count_matches_seq () =
  in_pool (fun pool ->
      let s = Text_gen.wiki ~size:20_000 ~seed:31 in
      Alcotest.(check bool) "parallel = hashtable" true
        (Word_count.count pool s = Word_count.count_seq s))

let test_word_count_top_k () =
  in_pool (fun pool ->
      let s = Text_gen.wiki ~size:20_000 ~seed:32 in
      let top = Word_count.top_k pool ~k:5 s in
      Alcotest.(check int) "k results" 5 (Array.length top);
      for i = 1 to 4 do
        Alcotest.(check bool) "sorted by freq" true (snd top.(i - 1) >= snd top.(i))
      done;
      (* Zipfian generator: "the" is the most frequent word by construction. *)
      Alcotest.(check string) "most frequent" "the" (fst top.(0)))

let prop_word_count_total_mass =
  QCheck.Test.make ~name:"word counts sum to token count" ~count:20
    QCheck.small_nat
    (fun seed ->
      let s = Text_gen.wiki ~size:2_000 ~seed in
      with_pool 2 (fun pool ->
          Pool.run pool (fun () ->
              let counts = Word_count.count pool s in
              Array.fold_left (fun acc (_, c) -> acc + c) 0 counts
              = Array.length (Word_count.tokenize s))))

let () =
  Alcotest.run "rpb_text"
    [
      ( "suffix_array",
        [
          Alcotest.test_case "banana" `Quick test_sa_banana;
          Alcotest.test_case "tiny cases" `Quick test_sa_tiny_cases;
          Alcotest.test_case "matches naive" `Quick test_sa_matches_naive_on_wiki;
          Alcotest.test_case "periodic worst case" `Quick test_sa_periodic_worst_case;
          Alcotest.test_case "checked mode agrees" `Quick test_sa_checked_mode_agrees;
          Alcotest.test_case "rank_of" `Quick test_sa_rank_of;
          QCheck_alcotest.to_alcotest prop_sa_valid_on_random;
        ] );
      ( "lcp",
        [
          Alcotest.test_case "banana lcp" `Quick test_lcp_banana;
          Alcotest.test_case "lrs known" `Quick test_lrs_known;
          Alcotest.test_case "lrs = naive" `Quick test_lrs_matches_naive;
          Alcotest.test_case "lrs occurs twice" `Quick test_lrs_substring_occurs_twice;
        ] );
      ( "bwt",
        [
          Alcotest.test_case "known bwt" `Quick test_bwt_known;
          Alcotest.test_case "roundtrip" `Quick test_bwt_roundtrip;
          Alcotest.test_case "checked roundtrip" `Quick test_bwt_checked_roundtrip;
          Alcotest.test_case "rejects sentinel" `Quick test_bwt_rejects_sentinel_in_input;
          Alcotest.test_case "decode needs sentinel" `Quick
            test_bwt_decode_requires_sentinel;
          Alcotest.test_case "LF permutation" `Quick test_lf_mapping_is_permutation;
          QCheck_alcotest.to_alcotest prop_bwt_roundtrip;
        ] );
      ( "bwt_parallel",
        [
          Alcotest.test_case "benign race distinct chars" `Quick
            test_distinct_chars_modes_agree;
        ] );
      ( "word_count",
        [
          Alcotest.test_case "tokenize" `Quick test_tokenize;
          Alcotest.test_case "known counts" `Quick test_word_count_known;
          Alcotest.test_case "matches seq" `Quick test_word_count_matches_seq;
          Alcotest.test_case "top_k" `Quick test_word_count_top_k;
          QCheck_alcotest.to_alcotest prop_word_count_total_mass;
        ] );
      ("text_gen", [ Alcotest.test_case "properties" `Quick test_text_gen_properties ]);
    ]
