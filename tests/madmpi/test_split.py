"""Tests for MPI_Comm_split and communicator context isolation."""

import operator

from repro.core import build_testbed
from repro.madmpi import ANY_TAG, BYTE, create_world, run_ranks


def world(nodes):
    bed = build_testbed(nodes=nodes, policy="fine")
    return bed, create_world(bed)


class TestSplit:
    def test_even_odd_partition(self):
        bed, comms = world(4)

        def rank_fn(comm):
            sub = yield from comm.Split(color=comm.rank % 2)
            return (sub.rank, sub.size)

        results = run_ranks(bed, comms, rank_fn)
        # nodes 0,2 -> evens {rank 0,1}; nodes 1,3 -> odds {rank 0,1}
        assert results == [(0, 2), (0, 2), (1, 2), (1, 2)]

    def test_key_reorders_ranks(self):
        bed, comms = world(3)

        def rank_fn(comm):
            # reverse order: higher old rank -> lower key -> lower new rank
            sub = yield from comm.Split(color=0, key=-comm.rank)
            return sub.rank

        results = run_ranks(bed, comms, rank_fn)
        assert results == [2, 1, 0]

    def test_undefined_color_returns_none(self):
        bed, comms = world(3)

        def rank_fn(comm):
            color = None if comm.rank == 2 else 0
            sub = yield from comm.Split(color)
            return None if sub is None else (sub.rank, sub.size)

        results = run_ranks(bed, comms, rank_fn)
        assert results == [(0, 2), (1, 2), None]

    def test_collectives_within_subcommunicator(self):
        bed, comms = world(4)

        def rank_fn(comm):
            sub = yield from comm.Split(color=comm.rank % 2)
            total = yield from sub.Allreduce(comm.rank, operator.add)
            return total

        results = run_ranks(bed, comms, rank_fn)
        assert results == [0 + 2, 1 + 3, 0 + 2, 1 + 3]

    def test_p2p_uses_subcomm_ranks(self):
        bed, comms = world(4)

        def rank_fn(comm):
            sub = yield from comm.Split(color=comm.rank % 2)
            other = 1 - sub.rank
            payload, status = yield from sub.Sendrecv(
                other, 8, other, 8, BYTE, payload=f"world-rank-{comm.rank}"
            )
            return (payload, status.source)

        results = run_ranks(bed, comms, rank_fn)
        # evens exchange: world 0 <-> 2; odds: 1 <-> 3
        assert results[0] == ("world-rank-2", 1)
        assert results[2] == ("world-rank-0", 0)
        assert results[1] == ("world-rank-3", 1)
        assert results[3] == ("world-rank-1", 0)

    def test_context_isolation_for_wildcards(self):
        """An ANY_TAG receive on a sub-communicator must not steal a
        message sent on the parent communicator."""
        bed, comms = world(2)

        def rank_fn(comm):
            sub = yield from comm.Split(color=0)
            if comm.rank == 0:
                # send on the PARENT, tag 5
                yield from comm.send("parent-msg", 1, tag=5)
                yield from comm.Barrier()
                # then on the SUB
                yield from sub.send("sub-msg", 1, tag=9)
                return None
            # wildcard receive on the SUB communicator: must get the sub
            # message even though the parent's arrived first
            from repro.sim.process import Delay

            yield Delay(50_000)  # parent-msg is already here, unexpected
            sub_req = yield from sub.irecv(0, tag=ANY_TAG)
            yield from comm.Barrier()
            yield from sub.Wait(sub_req)
            parent_obj = yield from comm.recv(0, tag=5)
            return (sub_req.payload, parent_obj)

        results = run_ranks(bed, comms, rank_fn)
        assert results[1] == ("sub-msg", "parent-msg")

    def test_wildcard_probe_ignores_parent_messages(self):
        """An ANY_TAG probe on a sub-communicator must not report a
        message sent on the parent communicator."""
        bed, comms = world(2)

        def rank_fn(comm):
            sub = yield from comm.Split(color=0)
            if comm.rank == 0:
                yield from comm.send("parent-msg", 1, tag=5)
                return None
            from repro.sim.process import Delay

            yield Delay(50_000)  # parent-msg is already here, unexpected
            found_sub, _ = yield from sub.Iprobe(0, ANY_TAG)
            found_parent, _ = yield from comm.Iprobe(0, ANY_TAG)
            parent_obj = yield from comm.recv(0, tag=5)
            return (found_sub, found_parent, parent_obj)

        results = run_ranks(bed, comms, rank_fn)
        assert results[1] == (False, True, "parent-msg")

    def test_nested_split(self):
        bed, comms = world(4)

        def rank_fn(comm):
            half = yield from comm.Split(color=comm.rank // 2)
            solo = yield from half.Split(color=half.rank)
            return (half.size, solo.size)

        results = run_ranks(bed, comms, rank_fn)
        assert all(r == (2, 1) for r in results)

    def test_single_rank_subcomm_collectives(self):
        bed, comms = world(2)

        def rank_fn(comm):
            solo = yield from comm.Split(color=comm.rank)
            total = yield from solo.Allreduce(41, operator.add)
            gathered = yield from solo.Allgather("me")
            return (total, gathered)

        results = run_ranks(bed, comms, rank_fn)
        assert all(r == (41, ["me"]) for r in results)
