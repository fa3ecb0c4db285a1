"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Engine
from repro.sim.errors import SimDeadlock, SimTimeLimit


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0

    def test_events_run_in_time_order(self):
        eng = Engine()
        seen = []
        eng.schedule(30, seen.append, "c")
        eng.schedule(10, seen.append, "a")
        eng.schedule(20, seen.append, "b")
        assert eng.run() == "drained"
        assert seen == ["a", "b", "c"]
        assert eng.now == 30

    def test_ties_break_by_insertion_order(self):
        eng = Engine()
        seen = []
        for tag in "abc":
            eng.schedule(5, seen.append, tag)
        eng.run()
        assert seen == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.schedule_at(5, lambda: None)

    def test_events_may_schedule_events(self):
        eng = Engine()
        seen = []

        def first():
            seen.append(eng.now)
            eng.schedule(7, second)

        def second():
            seen.append(eng.now)

        eng.schedule(3, first)
        eng.run()
        assert seen == [3, 10]

    def test_cancel(self):
        eng = Engine()
        seen = []
        h = eng.schedule(5, seen.append, "x")
        h.cancel()
        eng.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        h = eng.schedule(5, lambda: None)
        h.cancel()
        h.cancel()
        eng.run()

    def test_pending_excludes_cancelled(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        h = eng.schedule(2, lambda: None)
        h.cancel()
        assert eng.pending() == 1


class TestRun:
    def test_until_predicate(self):
        eng = Engine()
        hits = []
        for i in range(5):
            eng.schedule(i * 10, hits.append, i)
        reason = eng.run(until=lambda: len(hits) >= 3)
        assert reason == "until"
        assert hits == [0, 1, 2]
        # remaining events still pending
        assert eng.pending() == 2

    def test_until_true_before_any_event(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        assert eng.run(until=lambda: True) == "until"
        assert eng.pending() == 1

    def test_drained_with_until_raises_deadlock(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        with pytest.raises(SimDeadlock):
            eng.run(until=lambda: False)

    def test_max_time(self):
        eng = Engine()
        eng.schedule(100, lambda: None)
        with pytest.raises(SimTimeLimit):
            eng.run(max_time=50)

    def test_max_events(self):
        eng = Engine()

        def again():
            eng.schedule(1, again)

        eng.schedule(1, again)
        with pytest.raises(SimTimeLimit):
            eng.run(max_events=10)

    def test_not_reentrant(self):
        eng = Engine()

        def inner():
            with pytest.raises(RuntimeError):
                eng.run()

        eng.schedule(1, inner)
        eng.run()

    def test_events_run_counter(self):
        eng = Engine()
        for _ in range(4):
            eng.schedule(1, lambda: None)
        eng.run()
        assert eng.events_run == 4

    def test_run_resumable_after_until(self):
        eng = Engine()
        seen = []
        eng.schedule(1, seen.append, 1)
        eng.schedule(2, seen.append, 2)
        eng.run(until=lambda: bool(seen))
        eng.run()
        assert seen == [1, 2]


class TestLimitConsistency:
    """Tripped safety limits must leave the queue consistent: the event
    that would have crossed the limit stays queued, so a caught limit can
    be followed by a resumed run."""

    def test_max_time_leaves_event_queued(self):
        eng = Engine()
        seen = []
        eng.schedule(100, seen.append, "late")
        with pytest.raises(SimTimeLimit):
            eng.run(max_time=50)
        # the offending event was not consumed and the clock did not jump
        assert seen == []
        assert eng.pending() == 1
        assert eng.now <= 50
        eng.run()  # resumed run with no limit executes it
        assert seen == ["late"]
        assert eng.now == 100

    def test_max_time_ignores_cancelled_events_beyond_limit(self):
        eng = Engine()
        seen = []
        eng.schedule(10, seen.append, "early")
        h = eng.schedule(100, seen.append, "cancelled")
        h.cancel()
        assert eng.run(max_time=50) == "drained"
        assert seen == ["early"]

    def test_max_events_leaves_event_queued(self):
        eng = Engine()
        seen = []
        for i in range(5):
            eng.schedule(i + 1, seen.append, i)
        with pytest.raises(SimTimeLimit):
            eng.run(max_events=3)
        assert seen == [0, 1, 2]
        assert eng.pending() == 2
        eng.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_max_events_leaves_event_cancellable(self):
        eng = Engine()
        seen = []
        handle = eng.schedule(5, seen.append, "kept")
        with pytest.raises(SimTimeLimit):
            eng.run(max_events=0)
        handle.cancel()
        assert eng.pending() == 0
        assert eng.run() == "drained"
        assert seen == []

    @pytest.mark.parametrize("halt", ["max_events", "stop"])
    def test_resume_at_shared_timestamp(self, halt):
        # a run halted inside a timestamp keeps the rest of that time's
        # events ahead of a delay-0 event scheduled between runs
        eng = Engine()
        seen = []

        def first():
            seen.append("first")
            if halt == "stop":
                eng.stop()

        eng.schedule(5, first)
        eng.schedule(5, seen.append, "second").cancel()
        eng.schedule(5, seen.append, "third")
        if halt == "stop":
            assert eng.run() == "stopped"
        else:
            with pytest.raises(SimTimeLimit):
                eng.run(max_events=1)
        assert seen == ["first"]
        assert eng.now == 5
        assert eng.pending() == 1
        eng.call_after(0, seen.append, "new")
        assert eng.run() == "drained"
        assert seen == ["first", "third", "new"]
        assert eng.pending() == 0


class TestPendingCounter:
    def test_pending_tracks_schedule_cancel_run(self):
        eng = Engine()
        handles = [eng.schedule(i + 1, lambda: None) for i in range(10)]
        assert eng.pending() == 10
        handles[3].cancel()
        assert eng.pending() == 9
        eng.run()
        assert eng.pending() == 0

    def test_pending_counts_fire_and_forget(self):
        eng = Engine()
        eng.call_after(5, lambda: None)
        eng.call_after(0, lambda: None)
        assert eng.pending() == 2
        eng.run()
        assert eng.pending() == 0


class TestSameTimeOrdering:
    def test_delay_zero_runs_after_same_time_heap_events(self):
        # an event at t that schedules a delay-0 child must see every
        # *earlier-scheduled* event at t run before the child (global
        # insertion order), even though the child bypasses the heap
        eng = Engine()
        seen = []

        def first():
            seen.append("first")
            eng.schedule(0, seen.append, "child")

        eng.schedule(5, first)
        eng.schedule(5, seen.append, "second")
        eng.run()
        assert seen == ["first", "second", "child"]

    def test_delay_zero_chains_preserve_fifo(self):
        eng = Engine()
        seen = []

        def spawn(tag, depth):
            seen.append(tag)
            if depth:
                eng.schedule(0, spawn, f"{tag}.{depth}", depth - 1)

        eng.schedule(1, spawn, "a", 2)
        eng.schedule(1, spawn, "b", 2)
        eng.run()
        assert seen == ["a", "b", "a.2", "b.2", "a.2.1", "b.2.1"]
        assert eng.now == 1


class TestClockMonotonicity:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
    def test_observed_times_nondecreasing(self, delays):
        eng = Engine()
        times = []
        for d in delays:
            eng.schedule(d, lambda: times.append(eng.now))
        eng.run()
        assert times == sorted(times)
        assert eng.now == max(delays)
