open Rpb_pool

let num_blocks pool n =
  max 1 (min (8 * Pool.size pool) (Rpb_prim.Util.ceil_div n 1024))

(* PBBS-style blocked pack of [get i] for the [i] in [\[0, n)] where [p i]:
   one pass evaluates [p] once per element into a byte flag and counts each
   block's hits, a sequential prefix over the block counts gives every
   block its output offset, and a second pass copies each block's flagged
   elements to its own output range.  [witness] initializes the output.
   The write reads the stored flags, never [p] again, so each block writes
   exactly the hits it counted and stays inside its range. *)
let packi pool n p get witness =
  if n = 0 then [||]
  else begin
    let nb = num_blocks pool n in
    let bsize = Rpb_prim.Util.ceil_div n nb in
    let flags = Bytes.create n in
    let offsets = Array.make nb 0 in
    Pool.parallel_for ~grain:1 ~start:0 ~finish:nb
      ~body:(fun b ->
        let lo = b * bsize and hi = min n ((b + 1) * bsize) in
        let hits = ref 0 in
        for i = lo to hi - 1 do
          if p i then begin
            Bytes.unsafe_set flags i '\001';
            incr hits
          end
          else Bytes.unsafe_set flags i '\000'
        done;
        offsets.(b) <- !hits)
      pool;
    let total = ref 0 in
    for b = 0 to nb - 1 do
      let c = offsets.(b) in
      offsets.(b) <- !total;
      total := !total + c
    done;
    if !total = 0 then [||]
    else begin
      let out = Array.make !total witness in
      Pool.parallel_for ~grain:1 ~start:0 ~finish:nb
        ~body:(fun b ->
          let lo = b * bsize and hi = min n ((b + 1) * bsize) in
          let j = ref offsets.(b) in
          for i = lo to hi - 1 do
            if Bytes.unsafe_get flags i <> '\000' then begin
              Array.unsafe_set out !j (get i);
              incr j
            end
          done)
        pool;
      out
    end
  end

let pack pool p a =
  let n = Array.length a in
  if n = 0 then [||]
  else
    packi pool n
      (fun i -> p (Array.unsafe_get a i))
      (fun i -> Array.unsafe_get a i)
      a.(0)

let pack_index pool p n = packi pool n p Fun.id 0

let partition pool p a =
  let yes = pack pool p a in
  let no = pack pool (fun x -> not (p x)) a in
  (yes, no)

let flatten pool parts =
  let k = Array.length parts in
  if k = 0 then [||]
  else begin
    let lengths = Rpb_core.Par_array.init pool k (fun i -> Array.length parts.(i)) in
    let offsets, total = Scan.exclusive_int pool lengths in
    if total = 0 then [||]
    else begin
      (* Find a witness element to initialize the output. *)
      let rec first i = if Array.length parts.(i) > 0 then parts.(i).(0) else first (i + 1) in
      let out = Array.make total (first 0) in
      Pool.parallel_for ~grain:1 ~start:0 ~finish:k
        ~body:(fun i ->
          let part = parts.(i) in
          let off = offsets.(i) in
          for j = 0 to Array.length part - 1 do
            Array.unsafe_set out (off + j) (Array.unsafe_get part j)
          done)
        pool;
      out
    end
  end
