"""Unit tests for requests and the matching table."""

import pytest

from repro.core.matching import MatchingTable
from repro.core.packets import Chunk
from repro.core.requests import ANY_TAG, RecvRequest, ReqState, SendRequest
from repro.sim import Engine, Machine, quad_xeon_x5460


def machine():
    return Machine(Engine(), quad_xeon_x5460())


def chunk(src=1, req_id=10, tag=5, size=100, offset=0, length=None):
    return Chunk(src, req_id, tag, size, offset, size if length is None else length)


class TestRequests:
    def test_send_request_fields(self):
        m = machine()
        req = SendRequest(m, peer=1, tag=3, size=256, eager=True)
        assert req.state is ReqState.PENDING
        assert not req.done
        assert req.eager

    def test_send_rejects_any_tag(self):
        with pytest.raises(ValueError):
            SendRequest(machine(), 1, ANY_TAG, 10, eager=True)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SendRequest(machine(), 1, 0, -1, eager=True)

    def test_recv_any_tag_matches_everything(self):
        req = RecvRequest(machine(), 1, ANY_TAG, 10)
        assert req.matches(0) and req.matches(999)

    def test_recv_concrete_tag(self):
        req = RecvRequest(machine(), 1, 5, 10)
        assert req.matches(5)
        assert not req.matches(6)

    def test_complete_sets_time_and_fires(self):
        m = machine()
        req = RecvRequest(m, 1, 5, 10)
        req.complete(core=0)
        assert req.done
        assert req.completed_at == 0
        assert req.completion.fired

    def test_double_complete_rejected(self):
        req = RecvRequest(machine(), 1, 5, 10)
        req.complete()
        with pytest.raises(RuntimeError):
            req.complete()

    def test_byte_accounting(self):
        req = RecvRequest(machine(), 1, 5, 100)
        req.add_bytes(60)
        assert not req.all_bytes_done
        req.add_bytes(40)
        assert req.all_bytes_done

    def test_byte_overflow_rejected(self):
        req = RecvRequest(machine(), 1, 5, 100)
        with pytest.raises(RuntimeError):
            req.add_bytes(101)

    def test_unique_ids(self):
        m = machine()
        a = SendRequest(m, 1, 0, 1, eager=True)
        b = RecvRequest(m, 1, 0, 1)
        assert a.req_id != b.req_id


class TestMatchingPosted:
    def test_match_posted_receive(self):
        m, table = machine(), MatchingTable()
        req = RecvRequest(m, peer=1, tag=5, size=100)
        table.post(req)
        assert table.match_chunk(chunk()) is req
        assert table.posted_count == 0

    def test_fifo_order_among_equal_matches(self):
        m, table = machine(), MatchingTable()
        first = RecvRequest(m, 1, 5, 100)
        second = RecvRequest(m, 1, 5, 100)
        table.post(first)
        table.post(second)
        assert table.match_chunk(chunk(req_id=10)) is first
        assert table.match_chunk(chunk(req_id=11)) is second

    def test_peer_mismatch_not_matched(self):
        m, table = machine(), MatchingTable()
        table.post(RecvRequest(m, peer=2, tag=5, size=100))
        assert table.match_chunk(chunk(src=1)) is None
        assert table.unexpected_count == 1

    def test_any_tag_matches(self):
        m, table = machine(), MatchingTable()
        req = RecvRequest(m, 1, ANY_TAG, 100)
        table.post(req)
        assert table.match_chunk(chunk(tag=42)) is req

    def test_small_buffer_rejected(self):
        m, table = machine(), MatchingTable()
        table.post(RecvRequest(m, 1, 5, 10))
        with pytest.raises(RuntimeError):
            table.match_chunk(chunk(size=100))

    def test_multichunk_message_stays_associated(self):
        m, table = machine(), MatchingTable()
        req = RecvRequest(m, 1, 5, 100)
        table.post(req)
        c1 = chunk(offset=0, length=60)
        c2 = chunk(offset=60, length=40)
        got = table.match_chunk(c1)
        assert got is req
        assert not table.finish_chunk(c1, req)
        # second chunk matches through in-progress association, not posting
        assert table.match_chunk(c2) is req
        assert table.finish_chunk(c2, req)

    def test_finish_chunk_clears_in_progress(self):
        m, table = machine(), MatchingTable()
        req = RecvRequest(m, 1, 5, 100)
        table.post(req)
        c1 = chunk(offset=0, length=60)
        table.match_chunk(c1)
        table.finish_chunk(c1, req)
        c2 = chunk(offset=60, length=40)
        table.match_chunk(c2)
        table.finish_chunk(c2, req)
        assert table.in_progress_count == 0


class TestMatchingUnexpected:
    def test_unexpected_then_post_claims(self):
        m, table = machine(), MatchingTable()
        c = chunk()
        assert table.match_chunk(c) is None
        req = RecvRequest(m, 1, 5, 100)
        taken = table.take_unexpected(req)
        assert taken == [c]
        assert table.unexpected_count == 0
        assert table.unexpected_hits == 1

    def test_take_claims_single_message_only(self):
        m, table = machine(), MatchingTable()
        table.match_chunk(chunk(req_id=10))
        table.match_chunk(chunk(req_id=11))  # a different message, same tag
        req = RecvRequest(m, 1, 5, 100)
        taken = table.take_unexpected(req)
        assert len(taken) == 1
        assert taken[0].send_req_id == 10
        assert table.unexpected_count == 1

    def test_take_claims_all_chunks_of_message(self):
        m, table = machine(), MatchingTable()
        table.match_chunk(chunk(req_id=10, offset=0, length=50))
        table.match_chunk(chunk(req_id=10, offset=50, length=50))
        req = RecvRequest(m, 1, 5, 100)
        assert len(table.take_unexpected(req)) == 2

    def test_non_matching_post_takes_nothing(self):
        m, table = machine(), MatchingTable()
        table.match_chunk(chunk(tag=5))
        req = RecvRequest(m, 1, 99, 100)
        assert table.take_unexpected(req) is None
        assert table.unexpected_count == 1


class TestMatchingRts:
    def test_rts_matches_posted(self):
        m, table = machine(), MatchingTable()
        req = RecvRequest(m, 1, 5, 64_000)
        table.post(req)
        got = table.match_rts(src_node=1, req_id=77, tag=5, size=64_000)
        assert got is req
        # the rendezvous is registered for the coming data chunks
        data = chunk(req_id=77, size=64_000)
        assert table.match_chunk(data) is req

    def test_rts_unexpected_then_posted(self):
        m, table = machine(), MatchingTable()
        assert table.match_rts(1, 77, 5, 64_000) is None
        req = RecvRequest(m, 1, 5, 64_000)
        rts = table.take_unexpected(req)
        assert rts is not None and rts.send_req_id == 77

    def test_rts_buffer_too_small(self):
        m, table = machine(), MatchingTable()
        table.post(RecvRequest(m, 1, 5, 10))
        with pytest.raises(RuntimeError):
            table.match_rts(1, 77, 5, 64_000)

    def test_take_rts_respects_filter(self):
        m, table = machine(), MatchingTable()
        table.match_rts(2, 77, 5, 100)
        req = RecvRequest(m, 1, 5, 100)
        assert table.take_unexpected(req) is None
