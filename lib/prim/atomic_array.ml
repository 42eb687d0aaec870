(* A flat [int array] whose cells are only ever touched through the C11
   atomics in atomic_array_stubs.c.  The type is abstract, so no plain
   OCaml load or store can reach a cell. *)
type t = int array

external unsafe_get : t -> int -> int = "rpb_atomic_array_get" [@@noalloc]

external unsafe_set : t -> int -> int -> unit = "rpb_atomic_array_set"
[@@noalloc]

external cas : t -> int -> int -> int -> bool = "rpb_atomic_array_cas"
[@@noalloc]

external fetch_add : t -> int -> int -> int = "rpb_atomic_array_fetch_add"
[@@noalloc]

external fetch_min : t -> int -> int -> int = "rpb_atomic_array_fetch_min"
[@@noalloc]

external fetch_max : t -> int -> int -> int = "rpb_atomic_array_fetch_max"
[@@noalloc]

let make = Array.make
let init = Array.init
let length = Array.length

let[@inline] check a i =
  if i < 0 || i >= Array.length a then invalid_arg "index out of bounds"

let get a i =
  check a i;
  unsafe_get a i

let set a i v =
  check a i;
  unsafe_set a i v

let compare_and_set a i expected v =
  check a i;
  cas a i expected v

let fetch_and_add a i d =
  check a i;
  fetch_add a i d

let fetch_min a i v =
  check a i;
  fetch_min a i v

let fetch_max a i v =
  check a i;
  fetch_max a i v

let to_array a = Array.init (Array.length a) (unsafe_get a)
let of_array = Array.copy

let blit_from_array src dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Atomic_array.blit_from_array";
  Array.iteri (unsafe_set dst) src
