"""MPI's non-overtaking rule across the eager and rendezvous protocols.

Two messages on one (source, tag) must be received in send order whatever
protocol each travels by, and a probe must report the message the next
matching receive claims.
"""

import pytest

from repro.madmpi import BYTE
from repro.workloads.base import mechanism_grid, run_workload
from repro.workloads.bursty import bursty_point

EAGER = 64
RDV = 64 * 1024
TAG = 7


def eager_then_rdv(comm):
    """Rank 0 sends an eager then a rendezvous message on one tag; rank 1
    lets both land on its unexpected queue before posting the receives."""
    if comm.rank == 0:
        first = yield from comm.Isend(1, EAGER, BYTE, tag=TAG)
        second = yield from comm.Isend(1, RDV, BYTE, tag=TAG)
        yield from comm.Waitall([first, second])
        return None
    matching = comm.lib.matching
    for _ in range(50):
        if matching.unexpected_count == 2:
            break
        yield from comm.Iprobe(0, TAG)
    assert matching.unexpected_count == 2, "arrivals were not stashed"
    found, status = yield from comm.Iprobe(0, TAG)
    small = yield from comm.Irecv(0, EAGER, BYTE, tag=TAG)
    large = yield from comm.Irecv(0, RDV, BYTE, tag=TAG)
    yield from comm.Waitall([small, large])
    return found, status.count_bytes, small.status().count_bytes, large.status().count_bytes


@pytest.mark.parametrize("mech", [m.key for m in mechanism_grid("full")])
def test_eager_then_rendezvous_received_in_send_order(mech):
    run = run_workload(mech, eager_then_rdv, nodes=2)
    assert run.results[1] == (True, EAGER, EAGER, RDV)


def test_bursty_completes_past_overtaking_threshold():
    """96 messages per thread once made a receive claim a later
    rendezvous ahead of an earlier eager message on its (source, tag)."""
    assert bursty_point("fine/busy/inline", "", 0, 96) > 0
