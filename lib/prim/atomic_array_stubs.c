/* Sequentially consistent atomics on the cells of a flat OCaml [int array].

   [Atomic_array.t] is a plain [int array]: each cell is one tagged word
   (2v+1) stored inline, so a cell access is one C11 atomic on that word
   instead of a pointer chase through a boxed [Atomic.t].  Every operation
   uses the default memory_order_seq_cst, the ordering [Stdlib.Atomic]
   gives; on x86-64 the store compiles to [xchg] and the RMWs to [lock]ed
   instructions.

   The cells hold immediates only, so no write barrier is needed, and the
   stubs never allocate ([@@noalloc] on the OCaml side), so no GC can move
   the array during a call.  Tagged words order the same way as the ints
   they encode, so min/max compare raw words; adding 2d to a tagged word
   adds d to the int it encodes, wrapping as OCaml's [+] does.  Bounds are
   checked on the OCaml side. */

#include <caml/mlvalues.h>
#include <stdatomic.h>

#define Cell(a, i) (((_Atomic value *)(a)) + Long_val(i))

CAMLprim value rpb_atomic_array_get(value a, value i)
{
  return atomic_load(Cell(a, i));
}

CAMLprim value rpb_atomic_array_set(value a, value i, value v)
{
  atomic_store(Cell(a, i), v);
  return Val_unit;
}

CAMLprim value rpb_atomic_array_cas(value a, value i, value expected, value v)
{
  value seen = expected;
  return Val_bool(atomic_compare_exchange_strong(Cell(a, i), &seen, v));
}

CAMLprim value rpb_atomic_array_fetch_add(value a, value i, value d)
{
  /* [d] is the tagged word 2d+1, so [d - 1] is 2d. */
  return atomic_fetch_add(Cell(a, i), d - 1);
}

CAMLprim value rpb_atomic_array_fetch_min(value a, value i, value v)
{
  _Atomic value *cell = Cell(a, i);
  value cur = atomic_load(cell);
  /* A failed CAS reloads [cur]; stop once [v] no longer improves it. */
  while (v < cur && !atomic_compare_exchange_weak(cell, &cur, v)) {
  }
  return cur;
}

CAMLprim value rpb_atomic_array_fetch_max(value a, value i, value v)
{
  _Atomic value *cell = Cell(a, i);
  value cur = atomic_load(cell);
  while (v > cur && !atomic_compare_exchange_weak(cell, &cur, v)) {
  }
  return cur;
}
