(* A flat [int array].  Loads and stores are the array primitives, which the
   compiler inlines at every call site (the interface declares them
   [external] over a [private int array], so even an [-opaque] build
   inlines them); the read-modify-writes and the lock pair are the C11 stubs
   in atomic_array_stubs.c. *)
type t = int array

external length : t -> int = "%array_length"
external get : t -> int -> int = "%array_safe_get"
external set : t -> int -> int -> unit = "%array_safe_set"
external unsafe_get : t -> int -> int = "%array_unsafe_get"
external unsafe_set : t -> int -> int -> unit = "%array_unsafe_set"

external cas : t -> int -> int -> int -> bool = "rpb_atomic_array_cas"
[@@noalloc]

external fetch_add : t -> int -> int -> int = "rpb_atomic_array_fetch_add"
[@@noalloc]

external fetch_min : t -> int -> int -> int = "rpb_atomic_array_fetch_min"
[@@noalloc]

external fetch_max : t -> int -> int -> int = "rpb_atomic_array_fetch_max"
[@@noalloc]

external try_lock : t -> int -> bool = "rpb_atomic_array_try_lock" [@@noalloc]
external release : t -> int -> unit = "rpb_atomic_array_unlock" [@@noalloc]

let make = Array.make
let init = Array.init
let cells_per_line = 8

let[@inline] check a i =
  if i < 0 || i >= Array.length a then invalid_arg "index out of bounds"

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

(* A waiter's spins before it sleeps, and its sleep: the constants of the
   pool's helping [await]. *)
let spin_budget = 64
let sleep_s = 5e-5

(* Test-and-test-and-set: a waiter reads the word until it looks free and
   only then retries the CAS, so it spins in its own cache. *)
let rec lock_wait a i spins =
  if unsafe_get a i = 0 && try_lock a i then ()
  else if spins > 0 then begin
    Domain.cpu_relax ();
    lock_wait a i (spins - 1)
  end
  else begin
    Unix.sleepf sleep_s;
    lock_wait a i spin_budget
  end

let lock a i =
  check a i;
  if not (try_lock a i) then lock_wait a i spin_budget

let try_lock a i =
  check a i;
  try_lock a i

let unlock a i =
  check a i;
  release a i

let to_array = Array.copy
let of_array = Array.copy

let blit_from_array src dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Atomic_array.blit_from_array";
  Array.blit src 0 dst 0 (Array.length src)
