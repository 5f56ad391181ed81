import sys
import threading
import time

import numpy as np
import pytest

from multifuse import parallel
from multifuse.parallel import map_ordered
from multifuse.sma import barycenter_riemannian, barycenter_wasserstein
from multifuse.snf import SnfConfig, snf_fuse
from test_sma import planted_rbf_multiplex


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ``map_ordered`` sees; the size rule is lowered to 0."""
    monkeypatch.setattr(parallel, "MIN_THREADED_N", 0)

    def set_count(k):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: k)

    return set_count


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names = []

    class Counted(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return names


@pytest.fixture
def no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)


class TestMapOrdered:
    def test_results_in_input_order(self, cpus, started):
        cpus(4)
        # later items finish first
        out = map_ordered(lambda x: time.sleep(0.002 * (8 - x)) or x * x, range(8), n=0)
        assert out == [x * x for x in range(8)]
        assert len(started) == 3
        assert parallel._helpers == 0

    def test_lowest_index_error_is_raised(self, cpus):
        cpus(4)
        gate = threading.Barrier(3, timeout=30)

        def work(x):
            if x < 3:
                gate.wait()  # items 0-2 run at once, so item 2 fails before item 1
                if x == 2:
                    raise ValueError("item 2")
                time.sleep(0.05)
                if x == 1:
                    raise KeyError("item 1")
            return x

        with pytest.raises(KeyError, match="item 1"):
            map_ordered(work, range(6), n=0)
        assert parallel._helpers == 0

    def test_no_item_starts_after_an_error(self, cpus):
        cpus(2)
        ran = []

        def work(x):
            ran.append(x)
            if x == 0:
                raise ValueError("item 0")
            return x

        with pytest.raises(ValueError, match="item 0"):
            map_ordered(work, range(50), n=0)
        assert len(ran) < 50

    def test_one_cpu_starts_no_thread(self, cpus, no_thread):
        cpus(1)
        assert map_ordered(lambda x: -x, range(5), n=0) == [0, -1, -2, -3, -4]

    def test_below_the_size_rule_starts_no_thread(self, monkeypatch, no_thread):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
        n = parallel.MIN_THREADED_N - 1
        assert map_ordered(lambda x: x + 1, range(5), n) == [1, 2, 3, 4, 5]

    def test_helper_thread_map_starts_its_own_helper(self, cpus):
        # eight CPUs: one helper for the outer map, three for each inner map
        cpus(8)
        gate = threading.Barrier(2, timeout=30)
        inner_gates = {x: threading.Barrier(2, timeout=10) for x in range(2)}
        outer_thread, inner_threads = {}, {}

        def inner(job):
            x, y = job
            inner_threads.setdefault(x, set()).add(threading.current_thread())
            if y < 2:
                inner_gates[x].wait()  # items 0 and 1 of one map run at once
            return y

        def outer(x):
            gate.wait()  # both items run at once, one on the helper
            outer_thread[x] = threading.current_thread()
            return map_ordered(inner, [(x, y) for y in range(4)], n=0)

        assert map_ordered(outer, range(2), n=0) == [list(range(4))] * 2
        on_helper = [x for x, t in outer_thread.items() if t is not threading.current_thread()]
        assert len(on_helper) == 1
        x = on_helper[0]
        assert inner_threads[x] - {outer_thread[x]}  # a helper of the helper took part
        assert parallel._helpers == 0

    def test_waiting_caller_lends_its_slot(self, cpus):
        # two CPUs, so one helper slot, which the outer map's helper holds
        cpus(2)
        gate = threading.Barrier(2, timeout=30)
        inner_gate = threading.Barrier(2, timeout=5)
        caller = threading.current_thread()

        def inner(y):
            inner_gate.wait()  # both items run at once, so the inner map has a helper
            return y

        def outer(x):
            gate.wait()  # both items run at once, one on the helper
            if threading.current_thread() is caller:
                return None
            deadline = time.monotonic() + 5
            while parallel._helpers and time.monotonic() < deadline:
                time.sleep(0.001)  # until the caller has nothing left to run and waits
            return map_ordered(inner, range(2), n=0)

        assert map_ordered(outer, range(2), n=0) in ([None, [0, 1]], [[0, 1], None])
        assert parallel._helpers == 0

    def test_returning_caller_waits_for_a_free_slot(self, cpus):
        # the caller lent its slot, and another map holds it: it waits for a helper to end
        cpus(2)
        assert parallel._claim(1) == 1
        back = threading.Event()
        caller = threading.Thread(target=lambda: (parallel._reclaim(), back.set()))
        caller.start()
        assert not back.wait(0.2)
        parallel._release(1)
        assert back.wait(30)
        caller.join(timeout=30)
        assert not caller.is_alive()
        parallel._release(1)
        assert parallel._helpers == 0

    def test_failing_thread_start_releases_the_slots(self, cpus, monkeypatch):
        cpus(4)
        begun, fail = [], [True]
        start = threading.Thread.start

        def start_or_fail(self):
            begun.append(self)
            if fail and len(begun) == 2:
                raise RuntimeError("can't start new thread")
            start(self)

        monkeypatch.setattr(threading.Thread, "start", start_or_fail)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            map_ordered(lambda x: time.sleep(0.002) or x, range(6), n=0)
        begun[0].join(timeout=30)  # the one started helper stops at the error
        assert not begun[0].is_alive()
        assert parallel._helpers == 0
        # a later map gets all three helper slots
        begun.clear()
        fail.clear()
        assert map_ordered(lambda x: time.sleep(0.002) or x, range(6), n=0) == list(range(6))
        assert len(begun) == 3
        assert parallel._helpers == 0

    def test_thread_bound_across_nested_maps(self, cpus):
        # more workers than this machine has cores, switching threads as often as it can
        cpus(6)
        alive, most = [0], [0]
        lock = threading.Lock()

        def leaf(x):
            with lock:
                alive[0] += 1
                most[0] = max(most[0], alive[0])
            time.sleep(0.001)
            with lock:
                alive[0] -= 1
            return x

        def middle(x):
            return map_ordered(leaf, range(x, x + 5), n=0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                out = map_ordered(middle, range(8), n=0)
                assert out == [list(range(x, x + 5)) for x in range(8)]
                assert parallel._helpers == 0  # every slot claimed was released
        finally:
            sys.setswitchinterval(interval)
        # threads running items: the calling thread and five helpers, or more
        # helpers while callers that wait for theirs run no item
        assert most[0] <= 6


class TestSolversThreadedEqualInline:
    """With the size rule lowered, threaded solvers give the inline results bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_snf(self, cpus, started, seed):
        layers = planted_rbf_multiplex(40, 3, m=5, seed=seed)
        cpus(1)
        inline = snf_fuse(layers, SnfConfig())
        assert started == []
        cpus(4)
        threaded = snf_fuse(layers, SnfConfig())
        assert started
        assert np.array_equal(threaded.matrix, inline.matrix)
        assert threaded.residual_history == inline.residual_history

    @pytest.mark.parametrize("solver", [barycenter_riemannian, barycenter_wasserstein])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_metric_means(self, cpus, started, solver, seed):
        layers = planted_rbf_multiplex(30, 2, m=6, seed=seed)
        w = np.random.default_rng(seed).dirichlet(np.ones(6))
        cpus(1)
        inline = solver(layers, w)
        assert started == []
        cpus(4)
        threaded = solver(layers, w)
        assert started
        assert inline.converged
        assert np.array_equal(threaded.matrix, inline.matrix)
        assert threaded.residual_history == inline.residual_history
