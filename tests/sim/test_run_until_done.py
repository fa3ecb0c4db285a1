"""Event-driven run termination: ``Engine.stop`` and ``run_until_done``.

The equivalence tests replay whole benchmarks with the per-event
``until=`` predicate form and check that thread-completion termination
runs exactly the same events with exactly the same results.
"""

import operator

import pytest

from repro.bench.pingpong import run_pingpong
from repro.core import build_testbed
from repro.core.waiting import PassiveWait
from repro.madmpi import create_world, run_ranks
from repro.pioman.integration import attach_pioman
from repro.sim import (
    Delay,
    Engine,
    Machine,
    SimDeadlock,
    SimThreadError,
    SimTimeLimit,
    quad_xeon_x5460,
)
from repro.sim.process import Block
from repro.workloads import registry


def make_machine():
    eng = Engine()
    return eng, Machine(eng, quad_xeon_x5460())


class TestStop:
    @pytest.mark.parametrize("delay", [0, 5], ids=["bucket", "heap"])
    def test_returns_after_current_event_and_resumes(self, delay):
        eng = Engine()
        log = []

        def first():
            log.append("a")
            eng.stop()

        eng.call_after(delay, first)
        eng.call_after(delay, log.append, "b")
        eng.call_after(delay + 1, log.append, "c")
        assert eng.run() == "stopped"
        assert log == ["a"]
        assert eng.events_run == 1
        assert eng.pending() == 2
        assert eng.run() == "drained"
        assert log == ["a", "b", "c"]

    def test_stop_outside_a_run_does_nothing(self):
        eng = Engine()
        log = []
        eng.stop()
        eng.schedule(1, log.append, 1)
        eng.schedule(2, log.append, 2)
        assert eng.run() == "drained"
        assert log == [1, 2]

    def test_flag_cleared_when_an_event_raises(self):
        eng = Engine()
        log = []

        def boom():
            eng.stop()
            raise RuntimeError("boom")

        eng.schedule(1, boom)
        eng.schedule(2, log.append, 2)
        eng.schedule(3, log.append, 3)
        with pytest.raises(RuntimeError):
            eng.run()
        assert eng.run() == "drained"
        assert log == [2, 3]

    def test_flag_cleared_when_a_thread_raises(self):
        eng, m = make_machine()

        def fails():
            yield Delay(10)
            raise ValueError("bad")

        t = m.scheduler.spawn(fails(), name="fails", core=0)
        with pytest.raises(SimThreadError):
            eng.run_until_done(t)  # the finishing thread stops the run
        log = []
        eng.schedule(5, log.append, 1)
        eng.schedule(6, log.append, 2)
        assert eng.run() == "drained"
        assert log == [1, 2]


class TestRunUntilDone:
    def test_stops_in_the_event_the_last_thread_finishes(self):
        eng, m = make_machine()

        def work(ns):
            yield Delay(ns)
            return ns

        a = m.scheduler.spawn(work(100), name="a", core=0)
        b = m.scheduler.spawn(work(300), name="b", core=1)
        late = []
        eng.schedule(1_000, late.append, True)
        eng.run_until_done(a, b, a)  # a thread named twice is fine
        assert (a.result, b.result) == (100, 300)
        assert eng.now == 300
        assert late == [] and eng.pending() == 1

    def test_done_threads_run_zero_events(self):
        eng, m = make_machine()

        def work():
            yield Delay(10)

        t = m.scheduler.spawn(work(), name="w")
        eng.run_until_done(t)
        before = eng.events_run
        eng.schedule(50, lambda: None)
        eng.run_until_done(t, t)
        eng.run_until_done()
        assert eng.events_run == before
        assert eng.pending() == 1

    def test_drain_names_the_stuck_threads(self):
        eng, m = make_machine()

        def ok():
            yield Delay(10)

        def stuck():
            yield Block(reason="forever")

        t_ok = m.scheduler.spawn(ok(), name="fine-thread", core=0)
        t_stuck = m.scheduler.spawn(stuck(), name="stuck-thread", core=1)
        with pytest.raises(SimDeadlock, match="stuck-thread") as info:
            eng.run_until_done(t_ok, t_stuck)
        assert "fine-thread" not in str(info.value)

    def test_max_time_and_a_stale_countdown(self):
        eng, m = make_machine()

        def slow():
            yield Delay(10_000)

        t = m.scheduler.spawn(slow(), name="slow", core=0)
        with pytest.raises(SimTimeLimit):
            eng.run_until_done(t, max_time=1_000)
        assert not t.done
        # the aborted countdown must not stop a later run when t finishes
        log = []
        eng.schedule_at(20_000, log.append, "after")
        assert eng.run() == "drained"
        assert t.done and log == ["after"]


# ------------------------------------------------------------ equivalence


def _predicate_form(engine, *threads, max_time=None):
    engine.run(until=lambda: all(t.done for t in threads), max_time=max_time)


def _record(monkeypatch, form):
    """Route every ``Engine.run_until_done`` through ``form`` and log
    (events run, clock) after each call."""
    log = []

    def run_until_done(self, *threads, max_time=None):
        try:
            form(self, *threads, max_time=max_time)
        finally:
            log.append((self.events_run, self.now))

    monkeypatch.setattr(Engine, "run_until_done", run_until_done)
    return log


FORMS = {
    "countdown": Engine.run_until_done,
    "predicate": _predicate_form,
}


def _both_forms(monkeypatch, body):
    out = {}
    for name, form in FORMS.items():
        with monkeypatch.context() as mp:
            log = _record(mp, form)
            result = body()
        assert log, "the body never waited for threads"
        out[name] = (result, log)
    assert out["countdown"] == out["predicate"]


class TestSameEventsAsPredicateForm:
    @pytest.mark.parametrize("policy", ["none", "fine"])
    def test_run_pingpong(self, monkeypatch, policy):
        def body():
            bed = build_testbed(policy=policy)
            busy = run_pingpong(bed, 64, iterations=12, warmup=2).rtts_ns
            for node, lib in enumerate(bed.libs):
                attach_pioman(bed.machine(node), [lib])
            passive = run_pingpong(
                bed, 4096, iterations=6, warmup=1, wait_factory=PassiveWait
            ).rtts_ns
            return busy, passive

        _both_forms(monkeypatch, body)

    def test_run_ranks(self, monkeypatch):
        def body():
            bed = build_testbed(nodes=4, policy="fine")
            comms = create_world(bed)

            def rank_fn(comm):
                total = yield from comm.Allreduce(comm.rank + 1, operator.add)
                return total, bed.engine.now

            return run_ranks(bed, comms, rank_fn)

        _both_forms(monkeypatch, body)

    @pytest.mark.parametrize("mech", ["fine/busy/inline", "fine/passive/idle"])
    @pytest.mark.parametrize("name", registry.names())
    def test_quick_scenarios(self, monkeypatch, name, mech):
        sc = registry.get(name)

        def body():
            return [
                sc.point(mech, variant, 0, size)
                for variant in sc.variants
                for size in sc.quick_sizes
            ]

        _both_forms(monkeypatch, body)
