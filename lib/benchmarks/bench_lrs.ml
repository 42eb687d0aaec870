(* lrs — longest repeated substring (paper Table 1, input: wiki).

   Suffix array + Kasai LCP + parallel arg-max.  The dominant cost is the
   suffix array's SngInd rounds, so the checked/unchecked gap mirrors sa's
   but with the extra LCP work diluting it less (the paper reports lrs as
   the worst case, 2.8x). *)

open Rpb_core

let entry : Common.entry =
  {
    name = "lrs";
    full_name = "longest repeated substring";
    inputs = [ "wiki" ];
    patterns = Pattern.[ RO; Stride; Block; SngInd; RngInd; AW ];
    dynamic = false;
    access_sites =
      Pattern.[ (RO, 4); (Stride, 8); (SngInd, 3); (RngInd, 1); (AW, 1) ];
    mode_note =
      "unsafe: raw rank scatter; checked: validated; sync: falls back to checked";
    prepare =
      (fun pool ~input ~scale ->
        if input <> "wiki" then invalid_arg "lrs: input must be wiki";
        let size = Common.scaled 4_000 scale in
        let text = Rpb_text.Text_gen.wiki ~size ~seed:105 in
        let last = ref Rpb_text.Lcp.{ length = -1; position = 0 } in
        let seq_result = ref None in
        (* The reported substring must occur at least twice. *)
        let occurs_twice (r : Rpb_text.Lcp.lrs_result) =
          let len = r.Rpb_text.Lcp.length in
          len <= 0
          || begin
            let sub = String.sub text r.Rpb_text.Lcp.position len in
            let count = ref 0 in
            let i = ref 0 in
            (try
               while !count < 2 do
                 let j = Str_search.find text sub !i in
                 incr count;
                 i := j + 1
               done
             with Not_found -> ());
            !count >= 2
          end
        in
        {
          Common.size = Printf.sprintf "%d bytes" size;
          run_seq =
            (fun () ->
              let sa = Rpb_text.Suffix_array.build_seq text in
              let n = String.length text in
              (* sequential Kasai + max *)
              let rank = Array.make n 0 in
              Array.iteri (fun i p -> rank.(p) <- i) sa;
              let best = ref 0 and best_pos = ref 0 in
              let h = ref 0 in
              for i = 0 to n - 1 do
                if rank.(i) > 0 then begin
                  let j = sa.(rank.(i) - 1) in
                  while i + !h < n && j + !h < n && text.[i + !h] = text.[j + !h] do
                    incr h
                  done;
                  if !h > !best then begin
                    best := !h;
                    best_pos := i
                  end;
                  if !h > 0 then decr h
                end
                else h := 0
              done;
              seq_result := Some !best;
              last := Rpb_text.Lcp.{ length = !best; position = !best_pos });
          run_par =
            (fun mode ->
              let m =
                match mode with
                | Mode.Unsafe -> Rpb_text.Suffix_array.Unchecked_scatter
                | Mode.Checked | Mode.Synchronized ->
                  Rpb_text.Suffix_array.Checked_scatter
              in
              last := Rpb_text.Lcp.longest_repeated_substring ~mode:m pool text);
          verify =
            (fun () ->
              let r = !last in
              r.Rpb_text.Lcp.length >= 0
              && occurs_twice r
              && match !seq_result with
                 | Some l -> l = r.Rpb_text.Lcp.length
                 | None -> true);
          (* Only the length is schedule-independent: distinct positions can
             carry equally-long repeats and the arg-max tiebreak differs.  The
             occurrence check rides along so that a snapshot equal to a
             verified run's implies [verify]. *)
          snapshot =
            (fun () ->
              let r = !last in
              [| r.Rpb_text.Lcp.length; Common.digest_of_bool (occurs_twice r) |]);
        });
  }
