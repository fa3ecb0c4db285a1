"""Model-based testing of the matching table.

Hypothesis drives random interleavings of posts and arrivals (eager data
and rendezvous announcements alike) against a simple reference model (a
per-(peer, tag) FIFO queue with MPI matching semantics); the real table
must agree at every step.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.matching import MatchingTable, UnexpectedRts
from repro.core.packets import Chunk
from repro.core.requests import ANY_TAG, RecvRequest
from repro.sim import Engine, Machine, quad_xeon_x5460


class ReferenceModel:
    """Spec: arrivals match the oldest posted receive whose (peer, tag)
    accepts them; otherwise they queue as unexpected.  Posts claim the
    oldest matching unexpected arrival first, whatever its protocol (MPI's
    non-overtaking rule)."""

    def __init__(self) -> None:
        self.posted: deque[tuple[int, int, int]] = deque()  # (peer, tag, id)
        self.unexpected: deque[tuple[int, int, int]] = deque()  # (src, tag, msg_id)

    def post(self, peer: int, tag: int, rid: int) -> int | None:
        """Returns the matched unexpected msg_id, or None if queued."""
        for entry in list(self.unexpected):
            src, mtag, mid = entry
            if src == peer and (tag == ANY_TAG or tag == mtag):
                self.unexpected.remove(entry)
                return mid
        self.posted.append((peer, tag, rid))
        return None

    def arrive(self, src: int, tag: int, mid: int) -> int | None:
        """Returns the matched posted rid, or None if stashed."""
        for entry in list(self.posted):
            peer, ptag, rid = entry
            if peer == src and (ptag == ANY_TAG or ptag == tag):
                self.posted.remove(entry)
                return rid
        self.unexpected.append((src, tag, mid))
        return None


# operations: ("post", peer, tag) | ("arrive" | "arrive-rts", src, tag)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("post"), st.integers(0, 1), st.sampled_from([0, 1, 2, ANY_TAG])),
        st.tuples(
            st.sampled_from(["arrive", "arrive-rts"]), st.integers(0, 1), st.integers(0, 2)
        ),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_matching_agrees_with_reference(operations):
    machine = Machine(Engine(), quad_xeon_x5460())
    table = MatchingTable()
    model = ReferenceModel()
    req_by_id: dict[int, RecvRequest] = {}
    msg_counter = 0

    for op in operations:
        if op[0] == "post":
            _, peer, tag = op
            req = RecvRequest(machine, peer, tag, size=100)
            req_by_id[req.req_id] = req
            # real table: posting only; unexpected claims are the library's
            # job, emulate it like repro.core.library does
            claimed = table.take_unexpected(req)
            if claimed is not None:
                expected_mid = model.post(peer, tag, req.req_id)
                assert expected_mid is not None, "table matched, model did not"
                if not isinstance(claimed, UnexpectedRts):
                    claimed = claimed[0]
                assert claimed.send_req_id == expected_mid
            else:
                assert model.post(peer, tag, req.req_id) is None
                table.post(req)
        else:
            kind, src, tag = op
            msg_counter += 1
            mid = 10_000 + msg_counter
            if kind == "arrive":
                got = table.match_chunk(Chunk(src, mid, tag, 100, 0, 100))
            else:
                got = table.match_rts(src, mid, tag, 100)
            expected_rid = model.arrive(src, tag, mid)
            if expected_rid is None:
                assert got is None, "table matched, model stashed"
            else:
                assert got is not None, "model matched, table stashed"
                assert got.req_id == expected_rid

    # final queue sizes agree
    assert table.posted_count == len(model.posted)
    assert table.unexpected_count == len(model.unexpected)
