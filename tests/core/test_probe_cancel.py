"""Core-level tests for nm_probe and receive cancellation."""

import pytest

from repro.core import BusyWait, build_testbed
from repro.sim.process import Delay


class TestProbe:
    def test_probe_empty(self):
        bed = build_testbed(policy="none")
        out = {}

        def prober():
            lib = bed.lib(1)
            out["r"] = yield from lib.probe(0, 5)

        t = bed.machine(1).scheduler.spawn(prober(), name="p", core=0)
        bed.run(until=lambda: t.done)
        assert out["r"] == (False, None, None)

    def test_probe_finds_unexpected_eager(self):
        bed = build_testbed(policy="none")
        out = {}

        def sender():
            lib = bed.lib(0)
            req = yield from lib.isend(1, 5, 96)
            yield from lib.wait(req, BusyWait())

        def prober():
            lib = bed.lib(1)
            yield Delay(50_000)
            out["tagged"] = yield from lib.probe(0, 5)
            out["wild"] = yield from lib.probe(0, -1)
            # the message is still receivable
            req = yield from lib.irecv(0, 5, 96)
            yield from lib.wait(req, BusyWait())
            out["recv"] = req.bytes_done

        ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0)
        tp = bed.machine(1).scheduler.spawn(prober(), name="p", core=0)
        bed.run(until=lambda: ts.done and tp.done)
        assert out["tagged"] == (True, 96, 5)
        assert out["wild"] == (True, 96, 5)
        assert out["recv"] == 96

    def test_probe_unknown_peer(self):
        bed = build_testbed(policy="none")

        def prober():
            lib = bed.lib(1)
            yield from lib.probe(42, 5)

        t = bed.machine(1).scheduler.spawn(prober(), name="p", core=0)
        from repro.sim import SimThreadError

        with pytest.raises(SimThreadError):
            bed.run(until=lambda: t.done)


class TestCancelCore:
    def test_cancel_requires_recv(self):
        bed = build_testbed(policy="none")

        def bad():
            lib = bed.lib(0)
            sreq = yield from lib.isend(1, 1, 8)
            yield from lib.wait(sreq, BusyWait())
            yield from lib.cancel_recv(sreq)

        t = bed.machine(0).scheduler.spawn(bad(), name="b", core=0)
        from repro.sim import SimThreadError

        with pytest.raises(SimThreadError) as info:
            bed.run(until=lambda: t.done)
        assert isinstance(info.value.__cause__, TypeError)

    def test_cancelled_request_fires_completion(self):
        bed = build_testbed(policy="none")
        out = {}

        def worker():
            lib = bed.lib(1)
            req = yield from lib.irecv(0, 7, 16)
            ok = yield from lib.cancel_recv(req)
            # waiting on a cancelled request returns immediately
            yield from lib.wait(req, BusyWait())
            out["r"] = (ok, req.done, req.cancelled, req.bytes_done)

        t = bed.machine(1).scheduler.spawn(worker(), name="w", core=0)
        bed.run(until=lambda: t.done)
        assert out["r"] == (True, True, True, 0)

    def test_double_cancel_second_fails(self):
        bed = build_testbed(policy="none")
        out = {}

        def worker():
            lib = bed.lib(1)
            req = yield from lib.irecv(0, 7, 16)
            first = yield from lib.cancel_recv(req)
            second = yield from lib.cancel_recv(req)
            out["r"] = (first, second)

        t = bed.machine(1).scheduler.spawn(worker(), name="w", core=0)
        bed.run(until=lambda: t.done)
        assert out["r"] == (True, False)

    def test_matching_table_quiesced_after_cancel(self):
        bed = build_testbed(policy="none")

        def worker():
            lib = bed.lib(1)
            req = yield from lib.irecv(0, 7, 16)
            yield from lib.cancel_recv(req)

        t = bed.machine(1).scheduler.spawn(worker(), name="w", core=0)
        bed.run(until=lambda: t.done)
        assert bed.lib(1).matching.posted_count == 0
        assert not bed.lib(1).has_pending_requests()
