open Rpb_pool

let num_blocks pool n =
  let target = 8 * Pool.size pool in
  max 1 (min target (Rpb_prim.Util.ceil_div n 512))

(* Two-pass block scan.  [write i acc] receives the exclusive prefix for
   index [i]; it returns the value to fold in. *)
let block_scan pool f id a ~emit =
  Pool.Recorder.span pool "scan.block" @@ fun () ->
  let n = Array.length a in
  if n = 0 then id
  else begin
    let nb = num_blocks pool n in
    let bsize = Rpb_prim.Util.ceil_div n nb in
    let sums = Array.make nb id in
    Pool.parallel_for ~grain:1 ~start:0 ~finish:nb
      ~body:(fun b ->
        let lo = b * bsize and hi = min n ((b + 1) * bsize) in
        let acc = ref id in
        for i = lo to hi - 1 do
          acc := f !acc (Array.unsafe_get a i)
        done;
        sums.(b) <- !acc)
      pool;
    let total = ref id in
    let prefix = Array.make nb id in
    for b = 0 to nb - 1 do
      prefix.(b) <- !total;
      total := f !total sums.(b)
    done;
    Pool.parallel_for ~grain:1 ~start:0 ~finish:nb
      ~body:(fun b ->
        let lo = b * bsize and hi = min n ((b + 1) * bsize) in
        let acc = ref prefix.(b) in
        for i = lo to hi - 1 do
          let x = Array.unsafe_get a i in
          emit i !acc x;
          acc := f !acc x
        done)
      pool;
    !total
  end

let exclusive pool f id a =
  let n = Array.length a in
  let out = Array.make n id in
  let total =
    block_scan pool f id a ~emit:(fun i acc _x -> Array.unsafe_set out i acc)
  in
  (out, total)

let inclusive pool f id a =
  let n = Array.length a in
  let out = Array.make n id in
  let _total =
    block_scan pool f id a ~emit:(fun i acc x ->
        Array.unsafe_set out i (f acc x))
  in
  out

let exclusive_int pool a = exclusive pool ( + ) 0 a
let inclusive_int pool a = inclusive pool ( + ) 0 a
