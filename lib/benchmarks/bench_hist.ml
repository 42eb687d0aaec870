(* hist — histogram with multi-word accumulators (paper Table 1 and Sec. 7.4:
   "large structs in hist cannot use atomics, requiring Mutexes instead and
   causing a 4x slowdown").

   Each bucket accumulates count/sum/min/max — four words, no single atomic.
   Unsafe/checked builds privatize per block and merge; the synchronized
   build takes the bucket's lock on every update, a spin lock whose word
   sits in the bucket's own row beside the four words, as Rust's
   [Vec<Mutex<Stats>>] lays them out. *)

open Rpb_core

let entry : Common.entry =
  {
    name = "hist";
    full_name = "histogram (struct accumulators)";
    inputs = [ "exponential" ];
    patterns = Pattern.[ RO; Stride; Block; SngInd; AW ];
    dynamic = false;
    access_sites = Pattern.[ (RO, 1); (Stride, 2); (Block, 2); (SngInd, 1); (AW, 1) ];
    mode_note =
      "unsafe/checked: per-block privatization; sync: spin lock per bucket, \
       in the bucket's row";
    prepare =
      (fun pool ~input ~scale ->
        if input <> "exponential" then invalid_arg "hist: input must be exponential";
        let n = Common.scaled 20_000 scale in
        let buckets = 256 in
        let rng = Rpb_prim.Rng.create 113 in
        let values = Array.init n (fun _ -> Rpb_prim.Rng.exponential_int rng ~mean:1000) in
        let keys = Array.map (fun v -> Rpb_prim.Rng.hash64 v mod buckets) values in
        let expected =
          Rpb_parseq.Histogram.histogram_stats ~mode:Rpb_parseq.Histogram.Stats_seq
            pool ~keys ~values ~buckets
        in
        let last = ref [||] in
        {
          Common.size = Printf.sprintf "%d keys, %d buckets" n buckets;
          run_seq =
            (fun () ->
              last :=
                Rpb_parseq.Histogram.histogram_stats
                  ~mode:Rpb_parseq.Histogram.Stats_seq pool ~keys ~values ~buckets);
          run_par =
            (fun mode ->
              let m =
                match mode with
                | Mode.Unsafe | Mode.Checked -> Rpb_parseq.Histogram.Stats_private
                | Mode.Synchronized -> Rpb_parseq.Histogram.Stats_mutex
              in
              last :=
                Rpb_parseq.Histogram.histogram_stats ~mode:m pool ~keys ~values
                  ~buckets);
          verify =
            (fun () ->
              Array.length !last = Array.length expected
              && Array.for_all2 Rpb_parseq.Histogram.stats_equal !last expected);
          snapshot =
            (fun () ->
              (* Four ints per bucket: count, sum, min, max. *)
              let s = !last in
              Array.init (4 * Array.length s) (fun k ->
                  let b = s.(k / 4) in
                  match k mod 4 with
                  | 0 -> b.Rpb_parseq.Histogram.count
                  | 1 -> b.Rpb_parseq.Histogram.total
                  | 2 -> b.Rpb_parseq.Histogram.vmin
                  | _ -> b.Rpb_parseq.Histogram.vmax));
        });
  }
