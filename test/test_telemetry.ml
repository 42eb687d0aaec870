(* Tests for the machine-readable bench output (Bench_json): JSON printing /
   parsing, the benchmark-record schema round-trip, and the Chrome-trace
   export of the flight recorder. *)

open Rpb_benchmarks

let with_pool n f =
  let pool = Rpb_pool.Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Rpb_pool.Pool.shutdown pool) (fun () -> f pool)

(* ---------- JSON value round-trips ---------- *)

let sample_json =
  Bench_json.(
    Obj
      [
        ("null", Null);
        ("yes", Bool true);
        ("no", Bool false);
        ("int", Int (-42));
        ("big", Int max_int);
        ("float", Float 3.25);
        ("integral_float", Float 5.0);
        ("tiny", Float 1.25e-9);
        ("str", Str "a \"quoted\" \\ line\nwith\ttabs and \x01 control");
        ("list", List [ Int 1; Str "two"; Float 3.0; Null ]);
        ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
      ])

let test_json_roundtrip () =
  let s = Bench_json.to_string sample_json in
  let back = Bench_json.of_string s in
  Alcotest.(check bool) "value round-trips" true (back = sample_json);
  (* And the printed form is stable across a second trip. *)
  Alcotest.(check string) "printing is stable" s
    (Bench_json.to_string (Bench_json.of_string s))

let test_json_parser_accepts_whitespace () =
  let j =
    Bench_json.of_string
      " { \"a\" : [ 1 , 2.5 , true , \"x\" ] ,\n \"b\" : null } "
  in
  Alcotest.(check int) "a[0]"
    1
    Bench_json.(get_int (List.nth (get_list (member "a" j)) 0));
  Alcotest.(check (float 1e-9)) "a[1]" 2.5
    Bench_json.(get_float (List.nth (get_list (member "a" j)) 1))

let test_json_parser_rejects_garbage () =
  let rejects s =
    match Bench_json.of_string s with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Bench_json.Parse_error _ -> ()
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\":1} trailing";
  rejects "\"unterminated";
  rejects "nul"

let test_json_unicode_escape () =
  let j = Bench_json.of_string "\"caf\\u00e9 \\u0416\"" in
  Alcotest.(check string) "utf-8 decoding" "caf\xc3\xa9 \xd0\x96"
    (Bench_json.get_str j)

(* ---------- the BENCH_*.json schema ---------- *)

let sample_record =
  Bench_json.
    {
      bench = "sa";
      input = "wiki";
      mode = "checked";
      scale = 2;
      threads = 4;
      repeats = 3;
      mean_ns = 1234567.875;
      min_ns = 1200000.0;
      samples_ns = [| 1234567.875; 1303703.625; 1200000.0 |];
      smoke = false;
      verified = true;
      workers =
        [
          {
            worker_id = 0;
            tasks_executed = 120;
            steals_ok = 0;
            steals_failed = 3;
            idle_episodes = 1;
            max_deque_depth = 7;
          };
          {
            worker_id = 1;
            tasks_executed = 98;
            steals_ok = 14;
            steals_failed = 210;
            idle_episodes = 5;
            max_deque_depth = 4;
          };
        ];
    }

let test_record_roundtrip () =
  let j = Bench_json.record_to_json sample_record in
  let back = Bench_json.record_of_json (Bench_json.of_string (Bench_json.to_string j)) in
  Alcotest.(check bool) "record round-trips" true (back = sample_record)

let test_doc_roundtrip_via_file () =
  let path = Filename.temp_file "rpb_bench" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let records =
    [ sample_record; { sample_record with bench = "bw"; verified = false } ]
  in
  Bench_json.write_doc ~path
    ~meta:[ ("generator", Bench_json.Str "test"); ("scale", Bench_json.Int 0) ]
    records;
  let back = Bench_json.read_doc path in
  Alcotest.(check int) "record count" 2 (List.length back);
  Alcotest.(check bool) "records round-trip" true (back = records)

let test_doc_rejects_wrong_schema_version () =
  let j =
    Bench_json.(Obj [ ("schema_version", Int 999); ("results", List []) ])
  in
  match Bench_json.records_of_doc j with
  | _ -> Alcotest.fail "accepted wrong schema_version"
  | exception Bench_json.Parse_error _ -> ()

let test_doc_emits_v3 () =
  Alcotest.(check int) "writer version" 3 Bench_json.schema_version;
  let j = Bench_json.doc ~meta:[] [ sample_record ] in
  Alcotest.(check int) "documents carry schema_version 3" 3
    Bench_json.(get_int (member "schema_version" j));
  Alcotest.(check bool) "v3 parses" true
    (Bench_json.records_of_doc j = [ sample_record ])

(* A checked-in schema_version=1 document, as PR 1's writer emitted it —
   pinned as a string literal so reader back-compat cannot silently rot. *)
let v1_document =
  "{\"schema_version\":1,\"meta\":{\"generator\":\"rpb-bench\",\"scale\":0},\
   \"results\":[{\"bench\":\"sort\",\"input\":\"exponential\",\
   \"mode\":\"unsafe\",\"scale\":0,\"threads\":2,\"repeats\":1,\
   \"mean_ns\":1500000.0,\"min_ns\":1500000.0,\"verified\":true,\
   \"workers\":[{\"id\":0,\"tasks\":10,\"steals_ok\":1,\"steals_failed\":2,\
   \"idle\":0,\"max_deque_depth\":3}]}]}"

let test_v1_document_still_parses () =
  let records = Bench_json.records_of_doc (Bench_json.of_string v1_document) in
  match records with
  | [ r ] ->
    Alcotest.(check string) "bench" "sort" r.Bench_json.bench;
    Alcotest.(check int) "threads" 2 r.Bench_json.threads;
    Alcotest.(check int) "worker rows" 1 (List.length r.Bench_json.workers);
    Alcotest.(check int) "worker max_deque_depth" 3
      (List.hd r.Bench_json.workers).Bench_json.max_deque_depth;
    (* v3 fields default sanely on pre-v3 records. *)
    Alcotest.(check int) "no sample vector" 0
      (Array.length r.Bench_json.samples_ns);
    Alcotest.(check bool) "not a smoke run" false r.Bench_json.smoke
  | _ -> Alcotest.fail "expected exactly one record in the v1 document"

(* A checked-in schema_version=2 document, as PR 4's writer emitted it (the
   results shape is identical to v1; only the version number moved). *)
let v2_document =
  "{\"schema_version\":2,\"meta\":{\"generator\":\"rpb-bench\",\"scale\":0},\
   \"results\":[{\"bench\":\"hist\",\"input\":\"uniform\",\
   \"mode\":\"sync\",\"scale\":1,\"threads\":4,\"repeats\":2,\
   \"mean_ns\":2500000.0,\"min_ns\":2400000.0,\"verified\":true,\
   \"workers\":[{\"id\":0,\"tasks\":40,\"steals_ok\":2,\"steals_failed\":5,\
   \"idle\":1,\"max_deque_depth\":4}]}]}"

let test_v2_document_still_parses () =
  let records = Bench_json.records_of_doc (Bench_json.of_string v2_document) in
  match records with
  | [ r ] ->
    Alcotest.(check string) "bench" "hist" r.Bench_json.bench;
    Alcotest.(check int) "repeats" 2 r.Bench_json.repeats;
    Alcotest.(check int) "no sample vector" 0
      (Array.length r.Bench_json.samples_ns);
    Alcotest.(check bool) "not a smoke run" false r.Bench_json.smoke
  | _ -> Alcotest.fail "expected exactly one record in the v2 document"

(* One document holding v1-, v2- and v3-shaped records at once: the reader is
   keyed on the per-record fields, not the document version, so old records
   mixed into a v3 document must round-trip with sane defaults. *)
let test_mixed_version_document () =
  let v1_shape =
    (* As PR 1 wrote records: no samples_ns, no smoke. *)
    "{\"bench\":\"bw\",\"input\":\"wiki\",\"mode\":\"unsafe\",\"scale\":0,\
     \"threads\":2,\"repeats\":3,\"mean_ns\":1000.0,\"min_ns\":900.0,\
     \"verified\":true,\"workers\":[]}"
  in
  let v2_shape =
    (* v2 kept the v1 record shape. *)
    "{\"bench\":\"lrs\",\"input\":\"wiki\",\"mode\":\"checked\",\"scale\":0,\
     \"threads\":2,\"repeats\":1,\"mean_ns\":2000.0,\"min_ns\":2000.0,\
     \"verified\":true,\"workers\":[]}"
  in
  let v3_shape =
    "{\"bench\":\"sa\",\"input\":\"wiki\",\"mode\":\"unsafe\",\"scale\":0,\
     \"threads\":2,\"repeats\":3,\"mean_ns\":3000.0,\"min_ns\":2900.0,\
     \"samples_ns\":[3100.0,3000.0,2900.0],\"smoke\":true,\
     \"verified\":true,\"workers\":[]}"
  in
  let v3_policy_shape =
    (* As writers emitted v3 records while the scheduling-policy name was
       still stamped: readers ignore the key. *)
    "{\"bench\":\"dedup\",\"input\":\"words\",\"mode\":\"unsafe\",\"scale\":0,\
     \"threads\":2,\"repeats\":1,\"mean_ns\":4000.0,\"min_ns\":4000.0,\
     \"samples_ns\":[4000.0],\"smoke\":false,\"policy\":\"work_first\",\
     \"verified\":true,\"workers\":[]}"
  in
  let doc =
    Printf.sprintf
      "{\"schema_version\":3,\"meta\":{},\"results\":[%s,%s,%s,%s]}" v1_shape
      v2_shape v3_shape v3_policy_shape
  in
  let records = Bench_json.records_of_doc (Bench_json.of_string doc) in
  (match records with
   | [ r1; r2; r3; r4 ] ->
     Alcotest.(check int) "v1 record: no samples" 0
       (Array.length r1.Bench_json.samples_ns);
     Alcotest.(check bool) "v1 record: not smoke" false r1.Bench_json.smoke;
     Alcotest.(check int) "v2 record: no samples" 0
       (Array.length r2.Bench_json.samples_ns);
     Alcotest.(check bool) "v3 record: smoke flag survives" true
       r3.Bench_json.smoke;
     Alcotest.(check int) "v3 record: sample count" 3
       (Array.length r3.Bench_json.samples_ns);
     Alcotest.(check (float 1e-9)) "v3 record: first sample" 3100.0
       r3.Bench_json.samples_ns.(0);
     Alcotest.(check string) "policy-stamped v3 record parses" "dedup"
       r4.Bench_json.bench;
     (* Round-trip: re-emitting and re-reading preserves everything, with
        the defaulted fields now explicit. *)
     let again =
       Bench_json.records_of_doc
         (Bench_json.of_string
            (Bench_json.to_string (Bench_json.doc ~meta:[] records)))
     in
     Alcotest.(check bool) "mixed document round-trips" true (again = records)
   | _ -> Alcotest.fail "expected four records in the mixed document");
  (* A file round-trip of the same mixed document. *)
  let path = Filename.temp_file "rpb_mixed" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc doc;
  close_out oc;
  Alcotest.(check bool) "file read matches in-memory parse" true
    (Bench_json.read_doc path = records)

(* ---------- chrome trace output parses as JSON ---------- *)

let test_trace_file_is_valid_json () =
  let module Pool = Rpb_pool.Pool in
  let name = "span \"with\" quotes" in
  with_pool 2 (fun pool ->
      Pool.Recorder.start ();
      Pool.Recorder.with_root (fun () ->
          Pool.run pool (fun () ->
              Pool.Recorder.span pool name (fun () ->
                  Pool.parallel_for ~grain:4 ~start:0 ~finish:64
                    ~body:(fun _ -> ())
                    pool)));
      let recording = Pool.Recorder.stop () in
      let path = Filename.temp_file "rpb_trace" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let n = Rpb_obs.Profile.write_chrome path recording in
      let ic = open_in_bin path in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let j = Bench_json.of_string body in
      let events = Bench_json.get_list j in
      Alcotest.(check int) "event count matches" n (List.length events);
      Alcotest.(check bool) "the quoted span name round-trips" true
        (List.exists
           (fun e -> Bench_json.(get_str (member "name" e)) = name)
           events);
      List.iter
        (fun e ->
          Alcotest.(check string) "complete event" "X"
            Bench_json.(get_str (member "ph" e));
          ignore Bench_json.(get_float (member "ts" e));
          ignore Bench_json.(get_float (member "dur" e));
          ignore Bench_json.(get_int (member "tid" e)))
        events)

let () =
  Alcotest.run "rpb_telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "whitespace" `Quick
            test_json_parser_accepts_whitespace;
          Alcotest.test_case "rejects garbage" `Quick
            test_json_parser_rejects_garbage;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
        ] );
      ( "schema",
        [
          Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
          Alcotest.test_case "doc via file" `Quick test_doc_roundtrip_via_file;
          Alcotest.test_case "schema version check" `Quick
            test_doc_rejects_wrong_schema_version;
          Alcotest.test_case "writer emits v3" `Quick test_doc_emits_v3;
          Alcotest.test_case "v1 back-compat" `Quick
            test_v1_document_still_parses;
          Alcotest.test_case "v2 back-compat" `Quick
            test_v2_document_still_parses;
          Alcotest.test_case "mixed v1/v2/v3 records in one document" `Quick
            test_mixed_version_document;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome trace is valid JSON" `Quick
            test_trace_file_is_valid_json;
        ] );
    ]
