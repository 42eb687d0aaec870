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
