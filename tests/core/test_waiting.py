"""Unit tests for wait strategies (busy / pioman / passive / fixed-spin)."""

import pytest

from repro.bench.pingpong import run_pingpong
from repro.core import BusyWait, FixedSpinWait, PassiveWait, PiomanBusyWait, WaitError
from repro.core.session import build_testbed
from repro.pioman import attach_pioman


def bed_with_pioman(policy="fine", poll_cores=None, jitter_ns=0):
    bed = build_testbed(policy=policy, jitter_ns=jitter_ns)
    for node in (0, 1):
        attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=poll_cores)
    return bed


class TestBusyWait:
    def test_pingpong(self):
        bed = build_testbed(policy="none")
        res = run_pingpong(bed, 64, iterations=6, warmup=2, wait_factory=BusyWait)
        assert res.latency_us > 0

    def test_requires_nothing(self):
        bed = build_testbed(policy="none")
        assert bed.lib(0).pioman is None  # works without PIOMan


class TestPiomanBusyWait:
    def test_requires_pioman(self):
        bed = build_testbed(policy="none")
        res = {}

        def waiter():
            lib = bed.lib(0)
            req = yield from lib.isend(1, 0, 8)
            try:
                yield from lib.wait(req, PiomanBusyWait())
            except WaitError:
                res["raised"] = True

        t = bed.machine(0).scheduler.spawn(waiter(), name="w", core=0)
        bed.run(until=lambda: t.done)
        assert res.get("raised")

    def test_pingpong_with_pioman(self):
        bed = bed_with_pioman()
        res = run_pingpong(bed, 64, iterations=6, warmup=2, wait_factory=PiomanBusyWait)
        assert res.latency_us > 0
        assert bed.lib(0).pioman.completed_total > 0

    def test_fig6_pioman_costs_about_200ns(self):
        """Fig. 6: PIOMan management adds ~200 ns over direct progress."""

        def lat(wait_factory, with_pioman, size):
            if with_pioman:
                bed = bed_with_pioman(poll_cores=[0], jitter_ns=150)
            else:
                bed = build_testbed(policy="fine", jitter_ns=150)
            return run_pingpong(
                bed, size, iterations=32, warmup=4, wait_factory=wait_factory
            ).latency_ns

        deltas = [
            lat(PiomanBusyWait, True, size) - lat(BusyWait, False, size)
            for size in (8, 256)
        ]
        mean = sum(deltas) / len(deltas)
        assert mean == pytest.approx(200, abs=150)


class TestPassiveWait:
    def test_requires_pioman(self):
        bed = build_testbed(policy="none")
        res = {}

        def waiter():
            lib = bed.lib(0)
            req = yield from lib.isend(1, 0, 8)
            try:
                yield from lib.wait(req, PassiveWait())
            except WaitError:
                res["raised"] = True

        t = bed.machine(0).scheduler.spawn(waiter(), name="w", core=0)
        bed.run(until=lambda: t.done)
        assert res.get("raised")

    def test_pingpong_passive(self):
        """Both sides block; idle-core hooks do all the polling."""
        bed = bed_with_pioman()
        res = run_pingpong(bed, 64, iterations=6, warmup=2, wait_factory=PassiveWait)
        assert res.latency_us > 0
        # the application threads context-switched every iteration
        assert bed.machine(0).scheduler.ctx_switches > 6

    def test_fig7_passive_costs_about_750ns_over_active(self):
        """Fig. 7: semaphore-based waiting adds ~750 ns of switches."""

        def lat(wait_factory):
            bed = bed_with_pioman(policy="fine", poll_cores=[0], jitter_ns=150)
            return run_pingpong(
                bed, 8, iterations=32, warmup=4, wait_factory=wait_factory
            ).latency_ns

        active = lat(PiomanBusyWait)
        passive = lat(PassiveWait)
        delta = passive - active
        assert 350 <= delta <= 1_200


class TestFixedSpinWait:
    def test_short_events_resolve_spinning(self):
        """Events within the spin window avoid the context switch."""
        bed = bed_with_pioman()
        strategies = []

        def factory():
            s = FixedSpinWait(spin_ns=1_000_000)
            strategies.append(s)
            return s

        run_pingpong(bed, 8, iterations=6, warmup=2, wait_factory=factory)
        assert sum(s.resolved_spinning for s in strategies) > 0
        assert sum(s.resolved_blocking for s in strategies) == 0

    def test_long_events_fall_back_to_blocking(self):
        bed = bed_with_pioman()
        outcome = {}

        def receiver():
            lib = bed.lib(1)
            req = yield from lib.irecv(0, 5, 8)
            strat = FixedSpinWait(spin_ns=2_000)
            yield from lib.wait(req, strat)
            outcome["blocking"] = strat.resolved_blocking

        def sender():
            from repro.sim.process import Delay

            lib = bed.lib(0)
            yield Delay(200_000)  # way beyond the spin window
            req = yield from lib.isend(1, 5, 8)
            yield from lib.wait(req)

        tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0)
        ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0)
        bed.run(until=lambda: tr.done and ts.done)
        assert outcome["blocking"] == 1

    def test_default_threshold_from_costmodel(self):
        bed = bed_with_pioman()
        assert bed.costs.fixed_spin_ns == 5_000

    def test_negative_spin_rejected(self):
        with pytest.raises(ValueError):
            FixedSpinWait(spin_ns=-1)

    def test_fixed_spin_beats_pure_passive_for_fast_events(self):
        """§3.3: the switch is avoided when the event lands inside the
        spin window, so fixed-spin tracks active waiting.

        Polling is pinned to the waiting core (the Figs. 6/7 methodology);
        with free-roaming pollers the comparison would mix in the Fig. 8
        cache-affinity effects.
        """

        def lat(wait_factory):
            bed = bed_with_pioman(poll_cores=[0], jitter_ns=150)
            return run_pingpong(
                bed, 8, iterations=24, warmup=4, wait_factory=wait_factory
            ).latency_ns

        fixed = lat(lambda: FixedSpinWait(spin_ns=50_000))
        passive = lat(PassiveWait)
        assert fixed < passive


class TestTheoryMatchesSimulator:
    def test_fixed_spin_sweep_consistent_with_theory(self):
        """The E9 sweep's shape follows the cost model: thresholds below
        the 8 us arrival all pay spin+switch; covering thresholds pay the
        arrival only."""
        from repro.bench.waiting import run_fixed_spin_sweep

        results = run_fixed_spin_sweep(
            spin_values_ns=(0, 2_000, 20_000), event_delay_ns=8_000, iterations=6
        )
        block = results.point("fixed-spin wait", 0)
        short = results.point("fixed-spin wait", 2_000)
        cover = results.point("fixed-spin wait", 20_000)
        # theory: cost(block) ~ cost(short spin) > cost(covering spin)
        assert cover < block
        assert cover < short
        assert abs(short - block) < 1.5  # both pay the switch (us scale)
