type 'a buffer = 'a option Atomic.t array

type 'a t = {
  top : int Atomic.t;
  bottom : int Atomic.t;
  buf : 'a buffer Atomic.t;
}

let make_buffer n : 'a buffer = Array.init n (fun _ -> Atomic.make None)

let create ?(capacity = 64) () =
  assert (capacity > 0 && capacity land (capacity - 1) = 0);
  { top = Atomic.make 0; bottom = Atomic.make 0; buf = Atomic.make (make_buffer capacity) }

let mask buf = Array.length buf - 1

let buf_get buf i = Atomic.get buf.(i land mask buf)
let buf_set buf i v = Atomic.set buf.(i land mask buf) v

(* Owner only.  Doubles the buffer, copying the live window [t, b). *)
let grow q t b =
  let old = Atomic.get q.buf in
  let nbuf = make_buffer (2 * Array.length old) in
  for i = t to b - 1 do
    buf_set nbuf i (buf_get old i)
  done;
  Atomic.set q.buf nbuf

let push q x =
  let b = Atomic.get q.bottom in
  let t = Atomic.get q.top in
  let buf = Atomic.get q.buf in
  if b - t >= Array.length buf then grow q t b;
  let buf = Atomic.get q.buf in
  buf_set buf b (Some x);
  Atomic.set q.bottom (b + 1)

let pop q =
  let b = Atomic.get q.bottom - 1 in
  Atomic.set q.bottom b;
  let t = Atomic.get q.top in
  if t > b then begin
    (* Empty: restore bottom. *)
    Atomic.set q.bottom t;
    None
  end
  else begin
    let buf = Atomic.get q.buf in
    let x = buf_get buf b in
    if t < b then begin
      (* More than one element: no race with thieves on this slot. *)
      buf_set buf b None;
      x
    end
    else begin
      (* Last element: race a potential thief for it via [top]. *)
      let won = Atomic.compare_and_set q.top t (t + 1) in
      Atomic.set q.bottom (t + 1);
      if won then begin
        buf_set buf b None;
        x
      end
      else None
    end
  end

let steal q =
  let t = Atomic.get q.top in
  let b = Atomic.get q.bottom in
  if t >= b then None
  else begin
    let buf = Atomic.get q.buf in
    (* Read the element before the CAS: the owner cannot recycle slot [t]
       until [top] has moved past it, so a successful CAS validates [x]. *)
    let x = buf_get buf t in
    if Atomic.compare_and_set q.top t (t + 1) then x else None
  end

let size q =
  let b = Atomic.get q.bottom in
  let t = Atomic.get q.top in
  if b > t then b - t else 0

let is_empty q = size q = 0
