"""Tag matching: posted receives and the unexpected queue.

Arrived chunks are matched against posted receives by (source node, tag)
in FIFO posting order, MPI-style.  Chunks (and rendezvous RTS handshakes)
that arrive before a matching receive is posted are stashed, in arrival
order, on one *unexpected* queue; a newly-posted receive (or a probe)
claims the oldest entry it matches, so no message overtakes an earlier
one on the same (source, tag), whatever its protocol.

The posted-receive list is consumed only by the progress engine; posting
is modelled as a lock-free MPSC append (cost
:attr:`repro.core.costmodel.CostModel.recv_post_ns`, no lock cycle —
matching MX's lock-free posted-receive list).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.packets import Chunk
from repro.core.requests import RecvRequest


@dataclass
class UnexpectedRts:
    """A rendezvous announcement waiting for its receive to be posted; its
    fields carry the names they share with :class:`Chunk`."""

    src_node: int
    send_req_id: int
    tag: int
    msg_size: int


class MatchingTable:
    """Posted receives plus unexpected chunks/handshakes for one library."""

    def __init__(self) -> None:
        self._posted: deque[RecvRequest] = deque()
        # eager chunks and rendezvous announcements that found no posted
        # receive, in arrival order (on a rail, that is send order)
        self._unexpected: deque[Chunk | UnexpectedRts] = deque()
        # matched-but-incomplete receives (multi-chunk / multirail), by
        # (src_node, send_req_id)
        self._in_progress: dict[tuple[int, int], RecvRequest] = {}
        self.unexpected_hits = 0

    # -- posting ------------------------------------------------------------

    def post(self, req: RecvRequest) -> None:
        self._posted.append(req)

    @property
    def posted_count(self) -> int:
        return len(self._posted)

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    @property
    def in_progress_count(self) -> int:
        """Matched receives whose data has not fully arrived yet."""
        return len(self._in_progress)

    # -- matching ------------------------------------------------------------

    def _find_posted(self, src_node: int, tag: int) -> RecvRequest | None:
        for req in self._posted:
            if req.peer == src_node and req.matches(tag):
                self._posted.remove(req)
                req.matched_tag = tag
                return req
        return None

    def match_chunk(self, chunk: Chunk) -> RecvRequest | None:
        """Find the receive a data chunk belongs to.

        Multi-chunk messages stay associated through ``_in_progress`` until
        every byte has arrived.  Returns None (and stashes the chunk) when
        no receive matches yet.
        """
        key = (chunk.src_node, chunk.send_req_id)
        req = self._in_progress.get(key)
        if req is None:
            req = self._find_posted(chunk.src_node, chunk.tag)
            if req is None:
                self._unexpected.append(chunk)
                return None
            if req.size < chunk.msg_size:
                raise RuntimeError(
                    f"receive {req.req_id} buffer ({req.size} B) smaller than "
                    f"incoming message ({chunk.msg_size} B)"
                )
            if chunk.length < chunk.msg_size:
                self._in_progress[key] = req
        return req

    def finish_chunk(self, chunk: Chunk, req: RecvRequest) -> bool:
        """Account a delivered chunk; returns True when the message is whole."""
        if chunk.payload is not None:
            req.payload = chunk.payload
        req.add_bytes(chunk.length)
        if req.bytes_done >= chunk.msg_size:
            self._in_progress.pop((chunk.src_node, chunk.send_req_id), None)
            return True
        return False

    def remove_posted(self, req: RecvRequest) -> bool:
        """Withdraw a posted receive (cancellation). Returns False when the
        request is no longer in the posted list (already matching)."""
        try:
            self._posted.remove(req)
            return True
        except ValueError:
            return False

    def register_in_progress(self, src_node: int, send_req_id: int, req: RecvRequest) -> None:
        """Associate a partially-arrived / rendezvous message with its receive."""
        self._in_progress[(src_node, send_req_id)] = req

    def match_rts(self, src_node: int, req_id: int, tag: int, size: int) -> RecvRequest | None:
        """Match a rendezvous announcement; stash it when nothing is posted."""
        req = self._find_posted(src_node, tag)
        if req is None:
            self._unexpected.append(UnexpectedRts(src_node, req_id, tag, size))
            return None
        if req.size < size:
            raise RuntimeError(
                f"receive {req.req_id} buffer ({req.size} B) smaller than "
                f"announced rendezvous ({size} B)"
            )
        self._in_progress[(src_node, req_id)] = req
        return req

    # -- unexpected replay ------------------------------------------------------

    def find_unexpected(
        self, peer: int, accepts: Callable[[int], bool]
    ) -> Chunk | UnexpectedRts | None:
        """The oldest stashed arrival from ``peer`` whose tag ``accepts``
        admits: what a receive posted now would claim."""
        for entry in self._unexpected:
            if entry.src_node == peer and accepts(entry.tag):
                return entry
        return None

    def take_unexpected(self, req: RecvRequest) -> UnexpectedRts | list[Chunk] | None:
        """Pop the oldest stashed arrival the newly-posted receive matches:
        the rendezvous announcement, or every stashed chunk of that message
        (a rendezvous stashes no chunk, so its key is unique)."""
        first = self.find_unexpected(req.peer, req.matches)
        if first is None:
            return None
        req.matched_tag = first.tag
        key = (first.src_node, first.send_req_id)
        taken = [e for e in self._unexpected if (e.src_node, e.send_req_id) == key]
        self._unexpected = deque(
            e for e in self._unexpected if (e.src_node, e.send_req_id) != key
        )
        self.unexpected_hits += len(taken)
        return first if isinstance(first, UnexpectedRts) else taken
