(* bw — Burrows–Wheeler decode (paper Table 1, input: wiki).

   Prepare encodes a wiki-like text (untimed); the measured phase is the
   decode: a parallel stable counting-rank builds the LF mapping (SngInd —
   the ranks are a permutation by construction), then a sequential cycle walk
   emits the text. *)

open Rpb_core

let decode_synchronized pool bwt =
  (* "Unnecessary synchronization": pipe the LF mapping through atomic cells
     (relaxed stores and loads, inline as Rust's [Relaxed] ones are), as the
     paper's Fig. 5(b) variant does. *)
  let lf_plain = Rpb_text.Bwt.lf_mapping pool bwt in
  let n = Array.length lf_plain in
  let atomic = Rpb_prim.Atomic_array.make n 0 in
  Rpb_pool.Pool.parallel_for ~start:0 ~finish:n
    ~body:(fun i -> Rpb_prim.Atomic_array.unsafe_set atomic i lf_plain.(i))
    pool;
  let out = Bytes.create (n - 1) in
  let row = ref 0 in
  for k = n - 2 downto 0 do
    Bytes.unsafe_set out k bwt.[!row];
    row := Rpb_prim.Atomic_array.get atomic !row
  done;
  Bytes.unsafe_to_string out

let entry : Common.entry =
  {
    name = "bw";
    full_name = "Burrows-Wheeler decode";
    inputs = [ "wiki" ];
    patterns = Pattern.[ RO; Stride; Block; SngInd; RngInd; AW ];
    dynamic = false;
    access_sites =
      Pattern.[ (RO, 2); (Stride, 6); (Block, 1); (SngInd, 2); (RngInd, 1); (AW, 1) ];
    mode_note = "unsafe: raw LF; checked: validated LF; sync: atomic LF cells";
    prepare =
      (fun pool ~input ~scale ->
        if input <> "wiki" then invalid_arg "bw: input must be wiki";
        (* Decode is linear-time, so bw takes a larger base size than the
           n-log-n text benchmarks; this also keeps the checked-vs-unsafe
           ratio out of the measurement noise. *)
        let size = Common.scaled 32_000 scale in
        let text = Rpb_text.Text_gen.wiki ~size ~seed:101 in
        let encoded = Rpb_text.Bwt.encode pool text in
        let last = ref "" in
        {
          Common.size = Printf.sprintf "%d bytes" size;
          run_seq =
            (fun () ->
              (* Sequential decode: counting-sort LF, then the chase. *)
              let n = String.length encoded in
              let counts = Array.make 257 0 in
              String.iter (fun c -> counts.(Char.code c + 1) <- counts.(Char.code c + 1) + 1) encoded;
              for c = 1 to 256 do
                counts.(c) <- counts.(c) + counts.(c - 1)
              done;
              let lf = Array.make n 0 in
              for i = 0 to n - 1 do
                let c = Char.code encoded.[i] in
                lf.(i) <- counts.(c);
                counts.(c) <- counts.(c) + 1
              done;
              let out = Bytes.create (n - 1) in
              let row = ref 0 in
              for k = n - 2 downto 0 do
                Bytes.unsafe_set out k encoded.[!row];
                row := lf.(!row)
              done;
              last := Bytes.unsafe_to_string out);
          run_par =
            (fun mode ->
              last :=
                match mode with
                | Mode.Unsafe -> Rpb_text.Bwt.decode ~checked:false pool encoded
                | Mode.Checked -> Rpb_text.Bwt.decode ~checked:true pool encoded
                | Mode.Synchronized -> decode_synchronized pool encoded);
          verify = (fun () -> String.equal !last text);
          snapshot = (fun () -> Common.digest_of_string !last);
        });
  }
