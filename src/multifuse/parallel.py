"""Independent per-item work on several CPUs, with results in input order.

``map_ordered`` is the one place that starts threads.  The solvers spend
their time in LAPACK and BLAS calls, and the per-layer kernels and writers
in NumPy calls, which release the interpreter lock, so whole fusion methods,
the per-layer stages of a run, and the per-layer products and matrix
functions of one solver step can run on more than one CPU.  One slot counter
bounds the threads that run items across the whole process, whichever
thread starts a map: a caller that waits for its helpers lends its slot to
maps nested inside them.  The caller adds the per-layer terms in index order
after collecting them, so no result depends on thread scheduling.
"""

from __future__ import annotations

import os
import queue
import threading

__all__ = ["MIN_THREADED_N", "map_ordered"]

#: Node count below which ``map_ordered`` runs inline.  Smaller matrices spend
#: their time in the interpreter, where a second thread only contends for its
#: lock.  On two CPUs with one BLAS thread, a nine-layer ``cdp_step`` took 1.5
#: times as long threaded as inline at n = 80, and 0.8 times at n = 96 to 128;
#: the ``eigh`` maps of the metric means break even lower, near n = 48.
MIN_THREADED_N = 96

_slots = threading.Condition()
_helpers = 0  # slots in use by helper threads, less those lent by waiting callers


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim(wanted: int) -> int:
    """Reserve up to ``wanted`` of the ``_cpu_count() - 1`` helper slots; returns how many."""
    global _helpers
    with _slots:
        got = max(0, min(wanted, _cpu_count() - 1 - _helpers))
        _helpers += got
    return got


def _release(count: int):
    global _helpers
    with _slots:
        _helpers -= count
        _slots.notify_all()


def _reclaim():
    """Wait for a free slot and take it: a caller that lent its CPU takes it back."""
    global _helpers
    with _slots:
        _slots.wait_for(lambda: _helpers < _cpu_count() - 1)
        _helpers += 1


def map_ordered(fn, items, n: int) -> list:
    """``[fn(x) for x in items]``, on the calling thread and free helper threads.

    ``n`` is the node count of the matrices the work is on.  The map runs
    inline when ``n < MIN_THREADED_N`` or when no helper slot is free.  The
    calling thread takes part; once no item is left to start, it lends its
    CPU as a free slot to maps nested in the items its helpers still run,
    and after joining them waits for a free slot before it goes on.  So at
    most ``CPUs`` threads run items at any moment, however deeply maps nest,
    counting the thread that started the outermost map.  A map called on a
    helper thread claims free slots like any other; it joins only the
    helpers it started, so nested maps cannot wait on one another in a cycle.

    When items raise, no further item starts, and the error of the lowest
    index is raised, as an inline loop would raise it.  Helpers are daemon
    threads, so an interrupt of the caller need not wait for them.
    """
    items = list(items)
    helpers = 0
    if n >= MIN_THREADED_N and len(items) > 1:
        helpers = _claim(len(items) - 1)
    if not helpers:
        return [fn(x) for x in items]
    results, errors, halt = [None] * len(items), {}, []
    work = queue.SimpleQueue()

    def drain():
        while not (errors or halt):
            try:
                i = work.get_nowait()
            except queue.Empty:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:  # raised by the caller, lowest index first
                errors[i] = exc

    def helper():
        try:
            drain()
        finally:
            _release(1)

    started = 0  # a started helper releases its own slot
    try:
        for i in range(len(items)):
            work.put(i)
        threads = [
            threading.Thread(target=helper, name=f"multifuse-helper-{i}", daemon=True)
            for i in range(helpers)
        ]
        for t in threads:
            t.start()
            started += 1
        drain()
    except BaseException:
        halt.append(True)
        raise
    finally:
        _release(helpers - started)
    _release(1)  # lend this thread's CPU while it waits
    try:
        for t in threads:
            t.join()
    finally:
        _reclaim()
    if errors:
        raise errors[min(errors)]
    return results
