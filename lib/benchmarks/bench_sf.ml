(* sf — spanning forest via lock-free union-find (paper Table 1, inputs:
   link, road).  Edges race through CAS unions (AW). *)

open Rpb_core

let entry : Common.entry =
  {
    name = "sf";
    full_name = "spanning forest";
    inputs = [ "link"; "road" ];
    patterns = Pattern.[ RO; Stride; SngInd; RngInd; AW ];
    dynamic = false;
    access_sites =
      Pattern.[ (RO, 2); (Stride, 2); (SngInd, 1); (RngInd, 1); (AW, 2) ];
    mode_note = "all switches: CAS union-find (no cheaper expression exists)";
    prepare =
      (fun pool ~input ~scale ->
        let g = Graph_inputs.load pool ~name:input ~scale ~weighted:false ~symmetric:true in
        let expected_size = Rpb_graph.Csr.n g - Rpb_graph.Reference.num_components g in
        let last = ref [||] in
        (* acyclic: replay through a fresh union-find.  The edge array is
           built once here, not on every check. *)
        let edges = Rpb_graph.Csr.edges g in
        let acyclic forest =
          let uf = Rpb_graph.Union_find.create (Rpb_graph.Csr.n g) in
          Array.for_all
            (fun e ->
              let u, v = edges.(e) in
              Rpb_graph.Union_find.union uf u v)
            forest
        in
        {
          Common.size = Graph_inputs.describe g;
          run_seq = (fun () -> last := Rpb_graph.Spanning_forest.spanning_forest_seq g);
          run_par =
            (fun _mode -> last := Rpb_graph.Spanning_forest.spanning_forest pool g);
          verify =
            (fun () -> Array.length !last = expected_size && acyclic !last);
          (* Which edges span is schedule-dependent; the forest size and
             acyclicity are the specification. *)
          snapshot =
            (fun () -> [| Array.length !last; Common.digest_of_bool (acyclic !last) |]);
        });
  }
