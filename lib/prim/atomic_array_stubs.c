/* The read-modify-writes and the lock pair of [Atomic_array], as C11 atomics
   on the cells of a flat OCaml [int array].

   [Atomic_array.t] is a plain [int array]: each cell is one tagged word
   (2v+1) stored inline, so a cell access is one C11 atomic on that word
   instead of a pointer chase through a boxed [Atomic.t].  Loads and stores
   need no stub: they are inline OCaml accesses of the array (relaxed, see
   atomic_array.mli).  Each operation here names its ordering; none uses the
   default memory_order_seq_cst.  On x86-64 every RMW is one [lock]ed
   instruction whatever its ordering, and the release store of [unlock] is
   a plain [mov].

   The cells hold immediates only, so no write barrier is needed, and the
   stubs never allocate ([@@noalloc] on the OCaml side), so no GC can move
   the array during a call.  Tagged words order the same way as the ints
   they encode, so min/max compare raw words; adding 2d to a tagged word
   adds d to the int it encodes, wrapping as OCaml's [+] does.  Bounds are
   checked on the OCaml side. */

#include <caml/mlvalues.h>
#include <stdatomic.h>

#define Cell(a, i) (((_Atomic value *)(a)) + Long_val(i))

/* Acquire-release on success, so a CAS both publishes the caller's earlier
   writes and sees those of the write it replaced; acquire on failure. */
CAMLprim value rpb_atomic_array_cas(value a, value i, value expected, value v)
{
  value seen = expected;
  return Val_bool(atomic_compare_exchange_strong_explicit(
      Cell(a, i), &seen, v, memory_order_acq_rel, memory_order_acquire));
}

/* The counting and priority-update RMWs are relaxed: they order nothing but
   their own cell, like Rust's [fetch_add(_, Relaxed)]. */
CAMLprim value rpb_atomic_array_fetch_add(value a, value i, value d)
{
  /* [d] is the tagged word 2d+1, so [d - 1] is 2d. */
  return atomic_fetch_add_explicit(Cell(a, i), d - 1, memory_order_relaxed);
}

CAMLprim value rpb_atomic_array_fetch_min(value a, value i, value v)
{
  _Atomic value *cell = Cell(a, i);
  value cur = atomic_load_explicit(cell, memory_order_relaxed);
  /* A failed CAS reloads [cur]; stop once [v] no longer improves it. */
  while (v < cur && !atomic_compare_exchange_weak_explicit(
                        cell, &cur, v, memory_order_relaxed,
                        memory_order_relaxed)) {
  }
  return cur;
}

CAMLprim value rpb_atomic_array_fetch_max(value a, value i, value v)
{
  _Atomic value *cell = Cell(a, i);
  value cur = atomic_load_explicit(cell, memory_order_relaxed);
  while (v > cur && !atomic_compare_exchange_weak_explicit(
                        cell, &cur, v, memory_order_relaxed,
                        memory_order_relaxed)) {
  }
  return cur;
}

/* One attempt to take the lock word from 0 (free) to 1 (held), with acquire
   ordering on success: the critical section cannot start before it. */
CAMLprim value rpb_atomic_array_try_lock(value a, value i)
{
  value seen = Val_long(0);
  return Val_bool(atomic_compare_exchange_strong_explicit(
      Cell(a, i), &seen, Val_long(1), memory_order_acquire,
      memory_order_relaxed));
}

/* A release store of 0: the critical section's writes happen before the
   next owner's acquire. */
CAMLprim value rpb_atomic_array_unlock(value a, value i)
{
  atomic_store_explicit(Cell(a, i), Val_long(0), memory_order_release);
  return Val_unit;
}
