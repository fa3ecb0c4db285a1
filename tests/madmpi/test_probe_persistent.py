"""Tests for MPI_Probe/Iprobe and persistent requests."""

import pytest

from repro.core import build_testbed
from repro.madmpi import ANY_TAG, BYTE, MPIError, create_world, run_ranks
from repro.sim.process import Delay


def world(nodes=2):
    bed = build_testbed(nodes=nodes, policy="fine")
    return bed, create_world(bed)


class TestIprobe:
    def test_probe_sees_unclaimed_arrival(self):
        bed, comms = world()

        def rank_fn(comm):
            if comm.rank == 0:
                yield from comm.send(b"x" * 96, 1, tag=5)
                return None
            # wait until the message must have arrived, then probe
            yield Delay(50_000)
            found, status = yield from comm.Iprobe(0, tag=5)
            if not found:
                return ("missed", None)
            # the message is still receivable after the probe
            obj = yield from comm.recv(0, tag=5)
            return (status.count_bytes, obj)

        results = run_ranks(bed, comms, rank_fn)
        size, obj = results[1]
        assert size == 96
        assert obj == b"x" * 96

    def test_probe_negative_when_nothing_pending(self):
        bed, comms = world()

        def rank_fn(comm):
            if comm.rank == 1:
                found, status = yield from comm.Iprobe(0, tag=5)
                return found
            yield Delay(1)
            return None

        assert run_ranks(bed, comms, rank_fn)[1] is False

    def test_probe_respects_tag(self):
        bed, comms = world()

        def rank_fn(comm):
            if comm.rank == 0:
                yield from comm.send("a", 1, tag=1)
                return None
            yield Delay(50_000)
            wrong, _ = yield from comm.Iprobe(0, tag=2)
            right, _ = yield from comm.Iprobe(0, tag=1)
            # drain so the testbed finishes clean
            yield from comm.recv(0, tag=1)
            return (wrong, right)

        assert run_ranks(bed, comms, rank_fn)[1] == (False, True)

    def test_probe_any_tag(self):
        bed, comms = world()

        def rank_fn(comm):
            if comm.rank == 0:
                yield from comm.send("a", 1, tag=7)
                return None
            yield Delay(50_000)
            found, status = yield from comm.Iprobe(0, tag=ANY_TAG)
            yield from comm.recv(0, tag=7)
            return found

        assert run_ranks(bed, comms, rank_fn)[1] is True

    def test_probe_sees_rendezvous_announcement(self):
        bed, comms = world()

        def rank_fn(comm):
            if comm.rank == 0:
                yield from comm.send(b"z" * (64 * 1024), 1, tag=3)
                return None
            status = yield from comm.Probe(0, tag=3)
            obj = yield from comm.recv(0, tag=3)
            return (status.count_bytes, len(obj))

        size, got = run_ranks(bed, comms, rank_fn)[1]
        assert size == 64 * 1024
        assert got == 64 * 1024

    def test_blocking_probe_waits(self):
        bed, comms = world()

        def rank_fn(comm):
            if comm.rank == 0:
                yield Delay(100_000)
                yield from comm.send("late", 1, tag=4)
                return None
            t0 = bed.engine.now
            yield from comm.Probe(0, tag=4)
            waited = bed.engine.now - t0
            yield from comm.recv(0, tag=4)
            return waited

        assert run_ranks(bed, comms, rank_fn)[1] >= 100_000


class TestPersistent:
    def test_repeated_starts(self):
        bed, comms = world()
        ROUNDS = 5

        def rank_fn(comm):
            other = 1 - comm.rank
            if comm.rank == 0:
                psend = comm.Send_init(other, 32, BYTE, tag=2, payload="ping")
                for _ in range(ROUNDS):
                    yield from comm.Start(psend)
                    yield from psend.wait()
                return psend.starts
            precv = comm.Recv_init(other, 1 << 20, BYTE, tag=2)
            got = []
            for _ in range(ROUNDS):
                yield from comm.Start(precv)
                yield from precv.wait()
                got.append(precv.active.payload)
            return got

        results = run_ranks(bed, comms, rank_fn)
        assert results[0] == ROUNDS
        assert results[1] == ["ping"] * ROUNDS

    def test_start_while_active_rejected(self):
        bed, comms = world()

        def rank_fn(comm):
            if comm.rank == 1:
                precv = comm.Recv_init(0, 64, BYTE, tag=9)
                yield from comm.Start(precv)
                try:
                    yield from comm.Start(precv)
                except MPIError:
                    return "raised"
            else:
                yield Delay(200_000)
                yield from comm.send(b"x", 1, tag=9)  # unblock the recv
            return None

        assert run_ranks(bed, comms, rank_fn)[1] == "raised"

    def test_wait_before_start_rejected(self):
        bed, comms = world()

        def rank_fn(comm):
            p = comm.Send_init(1 - comm.rank, 8, BYTE)
            try:
                yield from p.wait()
            except MPIError:
                return "raised"

        assert run_ranks(bed, comms, rank_fn) == ["raised", "raised"]

    def test_startall(self):
        bed, comms = world()

        def rank_fn(comm):
            other = 1 - comm.rank
            recvs = [comm.Recv_init(other, 1 << 20, BYTE, tag=t) for t in range(3)]
            sends = [
                comm.Send_init(other, 16, BYTE, tag=t, payload=t) for t in range(3)
            ]
            yield from comm.Startall(recvs)
            yield from comm.Startall(sends)
            for p in sends + recvs:
                yield from p.wait()
            return [p.active.payload for p in recvs]

        results = run_ranks(bed, comms, rank_fn)
        assert results[0] == [0, 1, 2]
        assert results[1] == [0, 1, 2]

    def test_init_validates(self):
        bed, comms = world()
        with pytest.raises(MPIError):
            comms[0].Send_init(0, 8)  # self-send
        with pytest.raises(MPIError):
            comms[0].Recv_init(9, 8)  # no such rank


class TestStatusTag:
    def test_status_reports_the_sent_tag(self):
        """Wildcard probes and receives report the tag the message was
        sent with, and a split communicator reports its own user tag, not
        the wire tag it travels under."""
        bed, comms = world()

        def rank_fn(comm):
            sub = yield from comm.Split(color=0)
            if comm.rank == 0:
                yield from comm.Send(1, 34, BYTE, tag=5)
                yield from sub.Send(1, 64, BYTE, tag=5)
                return None
            yield Delay(50_000)  # both messages are here, unexpected
            _, probed = yield from comm.Iprobe(0, ANY_TAG)
            _, wildcard = yield from comm.Recv(0, 34, BYTE, tag=ANY_TAG)
            _, split = yield from sub.Recv(0, 64, BYTE, tag=5)
            return probed.tag, wildcard.tag, split.tag

        assert run_ranks(bed, comms, rank_fn)[1] == (5, 5, 5)
