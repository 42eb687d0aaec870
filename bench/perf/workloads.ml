(* The benchmark's workloads.  Every workload runs the same procedure: the
   paper's batch ratios over [suite], then [rpb serve] driven with request
   classes drawn from [mix].  They differ only in their inputs, which are
   chosen so that each one stresses a different layer. *)

type t = {
  name : string;
  why : string;
  suite : (string * int) list;
      (** batch benchmarks with their scales; each sequential run takes
          about 1.5-25 ms on a 2-core host.  Much shorter runs are left out
          on purpose: their parallel runs are dominated by cross-core
          wake-ups, whose cost on a shared host changes severalfold from one
          minute to the next. *)
  mix : (string * string * int) list;
      (** serve request classes (benchmark, mode, scale), drawn uniformly,
          so a class listed three times is three times as frequent.  The
          classes of a mix take similar service times, or one class
          dominates, so the latency median sits inside one mode of the
          distribution and not between two. *)
  rate : float;
      (** open-loop arrivals per second, a quarter to a third of capacity *)
}

let all =
  [
    {
      name = "regular";
      why =
        "static Stride/Block/D&C loops: pool fork/join and parseq kernels do \
         the work, the MultiQueue none";
      suite = [ ("sort", 3); ("isort", 3); ("mm", 3); ("msf", 2); ("hist", 6); ("dedup", 3) ];
      mix = [ ("hist", "unsafe", 5); ("hist", "unsafe", 5); ("hist", "unsafe", 5); ("sort", "unsafe", 0) ];
      rate = 120.;
    };
    {
      name = "irregular";
      why =
        "dynamic dispatch: the dr failed-steal storm and a MultiQueue domain \
         spawn on every bfs/sssp run";
      suite = [ ("dr", 0); ("bfs", 5); ("sssp", 4); ("mis", 5); ("sf", 3) ];
      mix = [ ("mis", "unsafe", 2); ("mis", "unsafe", 2); ("mis", "unsafe", 2); ("sssp", "unsafe", 1) ];
      rate = 120.;
    };
    {
      name = "fear";
      why =
        "benchmarks whose checked and sync modes differ from unsafe, so \
         Scatter.checked, Chunks_ind and the lock/atomic paths run";
      suite = [ ("bw", 2); ("lrs", 1); ("sa", 1); ("isort", 3); ("dedup", 3); ("sort", 3) ];
      mix = [ ("sort", "checked", 0); ("sort", "sync", 0) ];
      rate = 100.;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
