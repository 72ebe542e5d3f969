"""How work is cut into chunks and run on the CPUs of the process.

Every parallel stage of the package follows one policy:

* a stage's rows (traces of a ringdown stack, samples of a disorder sigma
  point, rows of a noise block) are cut by :func:`row_chunks` into chunks of
  about :data:`CHUNK_VALUES` values;
* :func:`on_all_cpus` runs the items on this thread and one helper thread
  per further CPU the process may use (none for fewer than two items),
  started and joined within the call;
* the calling thread runs the first item, which it takes before a helper
  starts, so the arrays that item allocates come from this thread's malloc
  arena; every thread then takes the next item in order whenever it comes
  free;
* each helper pins itself to its own CPU (see :func:`pin_helper`); the
  calling thread is never pinned;
* the first exception raised in any thread is raised again in the caller,
  after every thread has joined; no thread takes an item after it.

The work of a stage never mixes items, so its results do not depend on the
number of CPUs or on which thread ran an item.
"""

from __future__ import annotations

import os
import threading

# The most values one item holds: the traces x samples of one fit chunk
# (one fit-kernel call per grid kind in it), the matrix entries of one
# batched eigensolve of the disorder ensemble, the noise values of one
# Generator call.  Enough to amortize numpy's per-call overhead, few enough
# that an item's buffers stay in cache.  2**15 and 2**17 fitted slower on
# criterion-5 stacks, serial and threaded.
CHUNK_VALUES = 2**16


def row_chunks(n_rows: int, row_values: int) -> list[slice]:
    """Cut ``n_rows`` rows of ``row_values`` values each into chunks of
    about :data:`CHUNK_VALUES` values: ``k = ceil(n_rows * row_values /
    CHUNK_VALUES)`` chunks (none for no rows) of ``ceil(n_rows / k)`` rows,
    the last one what is left, so no slice ends past ``n_rows``.
    """
    size = -(-n_rows // max(1, -(-n_rows * row_values // CHUNK_VALUES)))
    return [slice(lo, min(lo + size, n_rows)) for lo in range(0, n_rows, max(1, size))]


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_helper(index: int) -> None:
    """Pin the calling helper thread to usable CPU number ``index`` (from 0,
    cyclically), where the OS lets a thread choose.  Left free, the Linux
    scheduler kept waking a helper on the CPU of the thread that had just
    released the interpreter lock, and two threads ran no faster than one
    (2-CPU VM, fit and noise draw alike); pinned, the unpinned calling
    thread moves to a free CPU.  A helper the OS refuses to pin runs free.
    """
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        try:
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        except OSError:  # the process's CPU set changed meanwhile
            pass


def on_all_cpus(work, items: list) -> None:
    """Call ``work(item)`` for every item, each once, under the policy of
    the module docstring."""
    pending, errors, lock = iter(items), [], threading.Lock()

    def take():
        with lock:
            return next(pending, None) if not errors else None

    def drain(item, helper=None):
        if helper is not None:
            pin_helper(helper + 1)
            item = take()
        while item is not None:
            try:
                work(item)
            except BaseException as exc:  # raised again in the calling thread
                with lock:
                    errors.append(exc)
                return
            item = take()

    first = take()
    helpers = [threading.Thread(target=drain, args=(None, j), name="omlattice-fit", daemon=True)
               for j in range(min(cpu_count(), len(items)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain(first)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
