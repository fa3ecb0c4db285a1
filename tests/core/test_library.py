"""End-to-end tests of the NewMadeleine library on the simulated testbed."""

import pytest

from repro.core import BusyWait, PacketKind, build_testbed
from repro.sim.process import Delay


def simple_bed(policy="none", **kw):
    return build_testbed(policy=policy, **kw)


def send_one(bed, size, tag=3, policy_wait=BusyWait):
    """Drive one eager/rdv message from node 0 to node 1; return (sreq, rreq)."""
    out = {}

    def sender():
        lib = bed.lib(0)
        req = yield from lib.isend(1, tag, size)
        yield from lib.wait(req, policy_wait())
        out["sreq"] = req

    def receiver():
        lib = bed.lib(1)
        req = yield from lib.irecv(0, tag, size)
        yield from lib.wait(req, policy_wait())
        out["rreq"] = req

    ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0, bound=True)
    tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0, bound=True)
    bed.run(until=lambda: ts.done and tr.done)
    return out["sreq"], out["rreq"]


class TestEagerTransfer:
    def test_small_message_completes_both_sides(self):
        bed = simple_bed()
        sreq, rreq = send_one(bed, 64)
        assert sreq.done and rreq.done
        assert rreq.bytes_done == 64
        assert sreq.eager

    def test_zero_byte_message(self):
        bed = simple_bed()
        sreq, rreq = send_one(bed, 0)
        assert sreq.done and rreq.done

    def test_latency_in_expected_range(self):
        """No locking, 1 byte: the Fig. 3 baseline is ~3-4 us one way."""
        bed = simple_bed()
        t0 = bed.engine.now
        _, rreq = send_one(bed, 1)
        oneway = rreq.completed_at - t0
        assert 2_500 <= oneway <= 5_000

    def test_unexpected_arrival_then_post(self):
        """The receive posted after the data arrived still completes."""
        bed = simple_bed()
        done = {}

        def sender():
            lib = bed.lib(0)
            req = yield from lib.isend(1, 9, 128)
            yield from lib.wait(req)

        def receiver():
            lib = bed.lib(1)
            # let the message arrive, then ingest it with no receive posted
            # so it lands on the unexpected queue
            yield Delay(50_000)
            yield from lib.progress()
            req = yield from lib.irecv(0, 9, 128)
            yield from lib.wait(req)
            done["rreq"] = req

        ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0)
        tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0)
        bed.run(until=lambda: ts.done and tr.done)
        assert done["rreq"].done
        assert bed.lib(1).matching.unexpected_hits >= 1

    def test_two_messages_same_tag_fifo(self):
        bed = simple_bed()
        order = []

        def sender():
            lib = bed.lib(0)
            r1 = yield from lib.isend(1, 3, 16)
            r2 = yield from lib.isend(1, 3, 16)
            yield from lib.wait(r1)
            yield from lib.wait(r2)

        def receiver():
            lib = bed.lib(1)
            ra = yield from lib.irecv(0, 3, 16)
            rb = yield from lib.irecv(0, 3, 16)
            yield from lib.wait(ra)
            order.append("first-done")
            yield from lib.wait(rb)
            order.append("second-done")

        ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0)
        tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0)
        bed.run(until=lambda: ts.done and tr.done)
        assert order == ["first-done", "second-done"]

    def test_bidirectional_same_time(self):
        bed = simple_bed()
        results = {}

        def node(me, other, key):
            lib = bed.lib(me)
            rreq = yield from lib.irecv(other, 5, 32)
            sreq = yield from lib.isend(other, 5, 32)
            yield from lib.wait(sreq)
            yield from lib.wait(rreq)
            results[key] = (sreq.done, rreq.done)

        t0 = bed.machine(0).scheduler.spawn(node(0, 1, "a"), name="a", core=0)
        t1 = bed.machine(1).scheduler.spawn(node(1, 0, "b"), name="b", core=0)
        bed.run(until=lambda: t0.done and t1.done)
        assert results["a"] == (True, True)
        assert results["b"] == (True, True)


class TestRendezvousTransfer:
    def test_large_message_uses_rdv(self):
        bed = simple_bed()
        sreq, rreq = send_one(bed, 32 * 1024)
        assert not sreq.eager
        assert sreq.done and rreq.done
        assert rreq.bytes_done == 32 * 1024
        # the handshake really happened
        assert bed.lib(0).packets_posted[PacketKind.RTS] == 1
        assert bed.lib(1).packets_posted[PacketKind.CTS] == 1

    def test_rdv_boundary(self):
        bed = simple_bed()
        sreq, _ = send_one(bed, 4096)
        assert sreq.eager
        bed2 = simple_bed()
        sreq2, _ = send_one(bed2, 4097)
        assert not sreq2.eager

    def test_rdv_unexpected_rts(self):
        """RTS before the receive is posted: CTS goes out on posting."""
        bed = simple_bed()

        def sender():
            lib = bed.lib(0)
            req = yield from lib.isend(1, 2, 64 * 1024)
            yield from lib.wait(req)

        def receiver():
            lib = bed.lib(1)
            yield Delay(100_000)  # let the RTS arrive unexpected... but
            # nobody polls node 1 while we sleep, so poll once to ingest it
            yield from lib.progress()
            req = yield from lib.irecv(0, 2, 64 * 1024)
            yield from lib.wait(req)

        ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0)
        tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0)
        bed.run(until=lambda: ts.done and tr.done)

    def test_rdv_data_is_zero_copy(self):
        bed = simple_bed()
        send_one(bed, 32 * 1024)
        # receiver's copy costs: only the eager path charges copies; verify
        # by accounting: 'net' on node1 core0 excludes a 32K copy (~22 us)
        net_ns = bed.machine(1).cores[0].busy_ns("net")
        assert net_ns < 10_000


class TestPolicyOverheadCalibration:
    """The heart of Fig. 3: constant per-message offsets of 140/230 ns.

    Measured like the figure harness: small calibrated jitter averages the
    polling loop's phase quantisation away (real hardware noise does the
    same), and offsets are medians over several sizes.
    """

    @staticmethod
    def offsets(sizes=(1, 64, 1024)):
        from repro.bench import figures
        from repro.bench.config import BenchConfig

        cfg = BenchConfig(iterations=32, warmup=4, sizes=sizes, jitter_ns=150)
        results = figures.run_latency("fig3", cfg)
        return figures.fig3_offsets(results), results

    def test_offsets_match_paper(self):
        offsets, _ = self.offsets()
        assert offsets["coarse"] == pytest.approx(140, abs=60)
        assert offsets["fine"] == pytest.approx(230, abs=80)

    def test_ordering_none_coarse_fine(self):
        """Fig. 3's visual ordering: no locking < coarse < fine (on the
        median offsets — single sizes carry up to a pass of phase bias)."""
        offsets, _ = self.offsets()
        assert 0 < offsets["coarse"] < offsets["fine"]

    def test_offsets_do_not_scale_with_size(self):
        """'a constant overhead ... that does not impact bandwidth'."""
        _, results = self.offsets(sizes=(1, 2048))
        small = results.point("coarse", 1) - results.point("none", 1)
        big = results.point("coarse", 2048) - results.point("none", 2048)
        assert abs(big - small) * 1_000 < 150


class TestApiValidation:
    def test_unknown_peer_rejected(self):
        bed = simple_bed()

        def bad():
            yield from bed.lib(0).isend(42, 0, 1)

        t = bed.machine(0).scheduler.spawn(bad(), name="b", core=0)
        from repro.sim import SimThreadError

        with pytest.raises(SimThreadError):
            bed.engine.run(until=lambda: t.done)

    def test_test_api(self):
        bed = simple_bed()
        outcome = {}

        def sender():
            lib = bed.lib(0)
            req = yield from lib.isend(1, 3, 8)
            # eager sends complete at injection: test sees it promptly
            ok = yield from lib.test(req)
            outcome["sent"] = ok

        def receiver():
            lib = bed.lib(1)
            req = yield from lib.irecv(0, 3, 8)
            while not (yield from lib.test(req)):
                pass
            outcome["recv"] = True

        ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0)
        tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0)
        bed.run(until=lambda: ts.done and tr.done)
        assert outcome == {"sent": True, "recv": True}

    def test_library_stats(self):
        bed = simple_bed()
        send_one(bed, 64)
        lib0 = bed.lib(0)
        assert lib0.isend_count == 1
        assert lib0.packets_posted[PacketKind.DATA] == 1
        assert bed.lib(1).irecv_count == 1

    def test_testbed_validation(self):
        with pytest.raises(ValueError):
            build_testbed(nodes=1)
        with pytest.raises(ValueError):
            build_testbed(rails=0)
