"""Unit tests for the Marcel scheduler: threads, effects, switching, idle."""

import pytest

from repro.sim import (
    Delay,
    Engine,
    Machine,
    SimDeadlock,
    SimThreadError,
    Sleep,
    ThreadState,
    YieldCore,
    quad_xeon_x5460,
    uniform,
)
from repro.sim.process import Block


def make_machine(ncores=4, **kw):
    eng = Engine()
    topo = quad_xeon_x5460() if ncores == 4 else uniform(ncores)
    return eng, Machine(eng, topo, **kw)


class TestSpawnAndRun:
    def test_thread_runs_to_completion(self):
        eng, m = make_machine()

        def work():
            yield Delay(100)
            return 42

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result == 42
        assert t.state is ThreadState.DONE
        assert eng.now == 100

    def test_spawn_requires_generator(self):
        _, m = make_machine()
        with pytest.raises(TypeError):
            m.scheduler.spawn(lambda: None, name="bad")

    def test_spawn_bad_core(self):
        _, m = make_machine()
        with pytest.raises(ValueError):
            m.scheduler.spawn(iter([]), core=99)

    def test_delays_accumulate_time(self):
        eng, m = make_machine()

        def work():
            yield Delay(100)
            yield Delay(250)

        t = m.scheduler.spawn(work(), name="w", core=0)
        eng.run(until=lambda: t.done)
        assert eng.now == 350
        assert m.cores[0].busy_ns("compute") == 350

    def test_delay_category_accounting(self):
        eng, m = make_machine()

        def work():
            yield Delay(100, "poll")
            yield Delay(50, "compute")

        t = m.scheduler.spawn(work(), name="w", core=2)
        eng.run(until=lambda: t.done)
        assert m.cores[2].busy_ns("poll") == 100
        assert m.cores[2].busy_ns("compute") == 50

    def test_zero_delay_is_inline(self):
        eng, m = make_machine()

        def work():
            for _ in range(5):
                yield Delay(0)
            return "ok"

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        assert t.result == "ok"
        assert eng.now == 0

    def test_exception_propagates_as_sim_thread_error(self):
        eng, m = make_machine()

        def bad():
            yield Delay(10)
            raise RuntimeError("boom")

        m.scheduler.spawn(bad(), name="bad")
        with pytest.raises(SimThreadError):
            eng.run(until=lambda: False)
        with pytest.raises(SimThreadError):
            m.check_failures()

    def test_two_threads_on_different_cores_run_in_parallel(self):
        eng, m = make_machine()

        def work():
            yield Delay(1000)

        t1 = m.scheduler.spawn(work(), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work(), name="b", core=1, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        assert eng.now == 1000  # true parallelism

    def test_two_threads_one_core_serialize(self):
        eng, m = make_machine()
        costs = m.costs

        def work():
            yield Delay(1000)

        t1 = m.scheduler.spawn(work(), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work(), name="b", core=0, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        # serialized plus one context switch between them
        assert eng.now == 2000 + costs.ctx_switch_ns

    def test_unbound_threads_balance_across_cores(self):
        eng, m = make_machine()

        def work():
            yield Delay(500)

        threads = [m.scheduler.spawn(work(), name=f"t{i}") for i in range(4)]
        eng.run(until=lambda: all(t.done for t in threads))
        assert eng.now == 500
        assert sorted({t.placed_on for t in threads}) == [0, 1, 2, 3]

    def test_live_threads_counter(self):
        eng, m = make_machine()

        def work():
            yield Delay(10)

        t = m.scheduler.spawn(work(), name="w")
        assert m.scheduler.live_threads == 1
        eng.run(until=lambda: t.done)
        assert m.scheduler.live_threads == 0


class TestYieldAndSwitch:
    def test_yield_alternates_threads(self):
        eng, m = make_machine()
        order = []

        def work(tag):
            for _ in range(3):
                order.append(tag)
                yield YieldCore()

        t1 = m.scheduler.spawn(work("a"), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work("b"), name="b", core=0, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_yield_with_empty_runq_continues(self):
        eng, m = make_machine()

        def work():
            yield YieldCore()
            yield Delay(10)
            return "done"

        t = m.scheduler.spawn(work(), name="solo", core=0)
        eng.run(until=lambda: t.done)
        assert t.result == "done"

    def test_context_switch_cost_charged(self):
        eng, m = make_machine()

        def work():
            yield Delay(100)

        t1 = m.scheduler.spawn(work(), name="a", core=0, bound=True)
        t2 = m.scheduler.spawn(work(), name="b", core=0, bound=True)
        eng.run(until=lambda: t1.done and t2.done)
        assert m.scheduler.ctx_switches == 1
        assert m.cores[0].busy_ns("ctxswitch") == m.costs.ctx_switch_ns


class TestBlockWake:
    def test_block_and_wake_value(self):
        eng, m = make_machine()
        box = []

        def waiter():
            value = yield Block(queue=box, reason="test")
            return value

        t = m.scheduler.spawn(waiter(), name="w", core=0)
        eng.run(until=lambda: bool(box))
        assert t.state is ThreadState.BLOCKED
        m.scheduler.wake(box.pop(), "hello")
        eng.run(until=lambda: t.done)
        assert t.result == "hello"

    def test_wake_with_delay(self):
        eng, m = make_machine()
        box = []

        def waiter():
            yield Block(queue=box)

        t = m.scheduler.spawn(waiter(), name="w", core=0)
        eng.run(until=lambda: bool(box))
        t0 = eng.now
        m.scheduler.wake(box.pop(), delay_ns=400)
        eng.run(until=lambda: t.done)
        assert eng.now >= t0 + 400

    def test_wake_non_blocked_rejected(self):
        eng, m = make_machine()

        def work():
            yield Delay(10)

        t = m.scheduler.spawn(work(), name="w")
        from repro.sim.errors import SimProtocolError

        with pytest.raises(SimProtocolError):
            m.scheduler.wake(t)

    def test_effect_subclass_rejected(self):
        """Effects dispatch on their exact class: a subclass is not an
        effect the scheduler knows."""
        eng, m = make_machine()

        class LongDelay(Delay):
            __slots__ = ()

        def work():
            yield LongDelay(10)

        m.scheduler.spawn(work(), name="w")
        from repro.sim.errors import SimProtocolError

        with pytest.raises(SimProtocolError, match="invalid effect"):
            eng.run()

    def test_wake_done_thread_is_noop(self):
        eng, m = make_machine()

        def work():
            yield Delay(1)

        t = m.scheduler.spawn(work(), name="w")
        eng.run(until=lambda: t.done)
        m.scheduler.wake(t)  # no raise

    def test_core_freed_while_blocked(self):
        eng, m = make_machine()
        box = []

        def waiter():
            yield Block(queue=box)

        def other():
            yield Delay(100)
            return "ran"

        tw = m.scheduler.spawn(waiter(), name="w", core=0, bound=True)
        eng.run(until=lambda: bool(box))
        to = m.scheduler.spawn(other(), name="o", core=0, bound=True)
        eng.run(until=lambda: to.done)
        assert to.result == "ran"
        assert not tw.done


class TestSleep:
    def test_timed_sleep_elapses(self):
        eng, m = make_machine()

        def sleeper():
            full = yield Sleep(500)
            return full

        t = m.scheduler.spawn(sleeper(), name="s")
        eng.run(until=lambda: t.done)
        assert t.result is True
        assert eng.now == 500

    def test_kick_interrupts_sleep(self):
        eng, m = make_machine()

        def sleeper():
            full = yield Sleep(10_000)
            return full

        t = m.scheduler.spawn(sleeper(), name="s")
        eng.run(until=lambda: t.state is ThreadState.SLEEPING)
        m.scheduler.kick(t)
        eng.run(until=lambda: t.done)
        assert t.result is False
        assert eng.now < 10_000

    def test_infinite_sleep_requires_kick(self):
        eng, m = make_machine()

        def sleeper():
            yield Sleep(None)
            return "woke"

        t = m.scheduler.spawn(sleeper(), name="s")
        eng.run(until=lambda: t.state is ThreadState.SLEEPING)
        assert eng.pending() == 0
        m.scheduler.kick(t)
        eng.run(until=lambda: t.done)
        assert t.result == "woke"

    def test_kick_non_sleeping_is_noop(self):
        eng, m = make_machine()

        def work():
            yield Delay(10)

        t = m.scheduler.spawn(work(), name="w")
        m.scheduler.kick(t)  # READY, not sleeping: no-op
        eng.run(until=lambda: t.done)

    def test_sleep_frees_core(self):
        eng, m = make_machine()

        def sleeper():
            yield Sleep(1_000)

        def worker():
            yield Delay(100)
            return eng.now

        ts = m.scheduler.spawn(sleeper(), name="s", core=0, bound=True)
        tw = m.scheduler.spawn(worker(), name="w", core=0, bound=True)
        eng.run(until=lambda: ts.done and tw.done)
        # worker ran during the sleep, not after it
        assert tw.result <= 1_000


class TestJoin:
    def test_join_returns_result(self):
        eng, m = make_machine()

        def child():
            yield Delay(200)
            return "payload"

        def parent():
            c = m.scheduler.spawn(child(), name="c", core=1)
            value = yield from m.scheduler.join(c)
            return value

        t = m.scheduler.spawn(parent(), name="p", core=0)
        eng.run(until=lambda: t.done)
        assert t.result == "payload"

    def test_join_already_done(self):
        eng, m = make_machine()

        def child():
            yield Delay(1)
            return 7

        c = m.scheduler.spawn(child(), name="c")
        eng.run(until=lambda: c.done)

        def parent():
            value = yield from m.scheduler.join(c)
            return value

        t = m.scheduler.spawn(parent(), name="p")
        eng.run(until=lambda: t.done)
        assert t.result == 7


class TestIdleLoop:
    def test_idle_thread_spawned_per_core(self):
        _, m = make_machine()
        m.enable_idle_loops()
        assert all(c.idle_thread is not None for c in m.cores)

    def test_enable_idle_loops_idempotent(self):
        _, m = make_machine()
        m.enable_idle_loops()
        m.enable_idle_loops()

    def test_idle_hook_runs_when_core_idle(self):
        eng, m = make_machine()
        hits = []

        def hook(core):
            hits.append(core.index)
            yield Delay(10, "poll")
            return False

        m.hooks.register_idle(hook)
        m.enable_idle_loops(cores=[3])
        eng.run(until=lambda: len(hits) >= 1, max_time=1_000_000)
        assert hits and hits[0] == 3

    def test_idle_parks_without_demand(self):
        eng, m = make_machine()
        hits = []

        def hook(core):
            hits.append(eng.now)
            yield Delay(10, "poll")
            return False

        m.hooks.register_idle(hook)
        m.enable_idle_loops(cores=[0])
        eng.run(until=lambda: len(hits) >= 1, max_time=1_000_000)
        # no demand provider: after one fruitless pass the idle thread parks
        eng.run(until=lambda: m.cores[0].idle_thread.state is ThreadState.SLEEPING)
        assert eng.pending() == 0

    def test_idle_keeps_polling_under_demand(self):
        eng, m = make_machine()
        hits = []
        demand_on = [True]

        def hook(core):
            hits.append(eng.now)
            yield Delay(10, "poll")
            return False

        m.hooks.register_idle(hook)
        m.hooks.register_demand(lambda: demand_on[0])
        m.enable_idle_loops(cores=[0])
        eng.run(until=lambda: len(hits) >= 5, max_time=1_000_000)
        assert len(hits) >= 5

    def test_real_thread_preempts_idle(self):
        eng, m = make_machine()

        def hook(core):
            yield Delay(50, "poll")
            return True  # always busy polling

        m.hooks.register_idle(hook)
        m.enable_idle_loops(cores=[0])
        eng.run(until=lambda: eng.now >= 500, max_time=1_000_000)

        def work():
            yield Delay(10)
            return eng.now

        t = m.scheduler.spawn(work(), name="w", core=0, bound=True)
        eng.run(until=lambda: t.done, max_time=1_000_000)
        # the idle loop let the real thread in promptly (within a hook pass
        # plus switch costs)
        assert t.result - 500 < 2_000

    def test_shutdown_stops_idle_loops(self):
        eng, m = make_machine()
        m.hooks.register_demand(lambda: True)

        def hook(core):
            yield Delay(10, "poll")
            return False

        m.hooks.register_idle(hook)
        m.enable_idle_loops()
        eng.run(until=lambda: eng.now > 1_000, max_time=1_000_000)
        m.shutdown()
        assert eng.run() == "drained"


class TestSpinDeadlockDetection:
    def test_bound_same_core_spin_detected(self):
        from repro.sim import Acquire, SpinLock

        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def holder():
            yield Acquire(lock)
            yield Delay(10_000)

        def contender():
            yield Acquire(lock)

        m.scheduler.spawn(holder(), name="h", core=0, bound=True)
        m.scheduler.spawn(contender(), name="c", core=0, bound=True)
        with pytest.raises(SimDeadlock):
            eng.run(until=lambda: False, max_time=1_000_000)

    def test_self_reacquire_detected(self):
        from repro.sim import Acquire, SpinLock

        eng, m = make_machine()
        lock = SpinLock("l", costs=m.costs)

        def bad():
            yield Acquire(lock)
            yield Acquire(lock)

        m.scheduler.spawn(bad(), name="b", core=0)
        with pytest.raises(SimDeadlock):
            eng.run(until=lambda: False, max_time=1_000_000)
