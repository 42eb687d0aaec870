open Rpb_core

let all : Common.entry list =
  [
    Bench_bw.entry;
    Bench_lrs.entry;
    Bench_sa.entry;
    Bench_dr.entry;
    Bench_mis.entry;
    Bench_mm.entry;
    Bench_sf.entry;
    Bench_msf.entry;
    Bench_sort.entry;
    Bench_dedup.entry;
    Bench_hist.entry;
    Bench_isort.entry;
    Bench_bfs.entry;
    Bench_sssp.entry;
  ]

let find name = List.find_opt (fun e -> e.Common.name = name) all

let names = List.map (fun e -> e.Common.name) all

let access_distribution () =
  let count p =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc (p', c) -> if p' = p then acc + c else acc)
          acc e.Common.access_sites)
      0 all
  in
  let counts = List.map (fun p -> (p, count p)) Pattern.all_accesses in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  List.map
    (fun (p, c) ->
      (p, c, if total = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int total))
    counts

(* Prepare, warm up, and measure one (benchmark, input, mode) combination,
   returning the typed record the JSON emitters consume plus the input-size
   string for the human tables. *)
let measure_entry ?(smoke = false) pool ~(entry : Common.entry) ~input ~scale
    ~repeats ~how =
  Rpb_pool.Pool.run pool (fun () ->
      let prepared = entry.Common.prepare pool ~input ~scale in
      let run =
        match how with
        | `Seq -> prepared.Common.run_seq
        | `Par mode -> fun () -> prepared.Common.run_par mode
      in
      run ();
      (* warm-up *)
      let m = Common.measure pool ~repeats run in
      let ok = prepared.Common.verify () in
      let record =
        {
          Bench_json.bench = entry.Common.name;
          input;
          mode = (match how with `Seq -> "seq" | `Par m -> Mode.name m);
          scale;
          threads = Rpb_pool.Pool.size pool;
          repeats;
          mean_ns = m.Common.mean_s *. 1e9;
          min_ns = m.Common.min_s *. 1e9;
          samples_ns = Array.map (fun s -> s *. 1e9) m.Common.samples_s;
          smoke;
          verified = ok;
          workers = Bench_json.workers_of_pool_stats m.Common.pool_stats;
        }
      in
      (record, prepared.Common.size))

let benchmarks_with p =
  List.filter_map
    (fun e -> if List.mem p e.Common.patterns then Some e.Common.name else None)
    all
