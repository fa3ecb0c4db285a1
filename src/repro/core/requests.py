"""Send and receive requests.

Requests are what ``nm_isend``/``nm_irecv`` hand back to the application;
``nm_wait``/``nm_test`` operate on them.  Completion is a
:class:`repro.sim.sync.Completion`, which carries the inter-core
cache-visibility semantics of Fig. 8: a request completed by a progression
thread on core *k* becomes visible to a waiter on core *c* only after the
topology's transfer cost.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.sim.sync import Completion

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

#: wildcard receive tag
ANY_TAG = -1


class ReqState(enum.Enum):
    PENDING = "pending"  # created, not yet picked up by the optimizer
    RTS_SENT = "rts-sent"  # rendezvous send: waiting for CTS
    IN_TRANSIT = "in-transit"  # data packets posted / partially arrived
    DONE = "done"


class Request:
    """Base class: identity, progress bookkeeping, completion flag."""

    _counter = 0

    def __init__(self, machine: "Machine", peer: int, tag: int, size: int) -> None:
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        if tag < ANY_TAG:
            raise ValueError(f"tag must be >= 0 (or ANY_TAG for receives), got {tag}")
        Request._counter += 1
        self.req_id = Request._counter
        self.machine = machine
        self.peer = peer
        self.tag = tag
        self.size = size
        self.state = ReqState.PENDING
        #: plain attribute (set by :meth:`complete`), not a property — the
        #: progression engine and PIOMan's reap path poll it per pass
        self.done = False
        self.completion = Completion(machine, name=f"req{self.req_id}")
        #: bytes handed to / received from the network so far
        self.bytes_done = 0
        #: simulated time of completion (for latency accounting)
        self.completed_at: int | None = None
        #: application object riding along with the message (sends carry
        #: it out; receives surface what arrived)
        self.payload: object | None = None
        #: True when the request completed by cancellation, not by data
        self.cancelled = False
        #: lifecycle timestamps (ns) for latency decomposition:
        #: sends record "submitted"/"injected"/"completed"; receives record
        #: "posted"/"arrived"/"matched"/"completed"
        self.timeline: dict[str, int] = {}
        #: completion callbacks (lazy; most requests have none) — PIOMan's
        #: reap path subscribes here so its poll ticks never rescan the
        #: whole request list
        self._done_cbs: list | None = None

    def on_done(self, cb) -> None:
        """Run ``cb(request)`` at completion (immediately if already done).

        Callbacks run synchronously inside :meth:`complete` and must not
        yield effects — they are host-side bookkeeping hooks.
        """
        if self.done:
            cb(self)
        elif self._done_cbs is None:
            self._done_cbs = [cb]
        else:
            self._done_cbs.append(cb)

    def stamp(self, event: str, time_ns: int | None = None) -> None:
        """Record the first occurrence of a lifecycle event."""
        when = self.machine.engine.now if time_ns is None else time_ns
        self.timeline.setdefault(event, when)

    def add_bytes(self, n: int) -> None:
        if n < 0:
            raise ValueError("byte count must be >= 0")
        self.bytes_done += n
        if self.bytes_done > self.size:
            raise RuntimeError(
                f"request {self.req_id}: {self.bytes_done} bytes exceed size {self.size}"
            )

    @property
    def all_bytes_done(self) -> bool:
        return self.bytes_done >= self.size

    def complete(self, *, core: int | None = None) -> None:
        """Mark done and fire the completion from ``core``."""
        if self.done:
            raise RuntimeError(f"request {self.req_id} completed twice")
        self.state = ReqState.DONE
        self.done = True
        self.completed_at = self.machine.engine.now
        self.stamp("completed")
        self.completion.fire(self, core=core)
        cbs = self._done_cbs
        if cbs is not None:
            self._done_cbs = None
            for cb in cbs:
                cb(self)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} #{self.req_id} peer={self.peer} tag={self.tag} "
            f"size={self.size} {self.state.value}>"
        )


def tag_accepts(want: int, bounds: tuple[int, int] | None, tag: int) -> bool:
    """The tag rule of receives and probes: a concrete ``want`` matches
    only itself; ``ANY_TAG`` matches any tag within the optional inclusive
    ``bounds``."""
    if want != ANY_TAG:
        return want == tag
    if bounds is None:
        return True
    lo, hi = bounds
    return lo <= tag <= hi


class SendRequest(Request):
    """An ``nm_isend`` in flight.

    Eager sends complete at local injection; rendezvous sends complete when
    the data packets have been posted after the CTS arrived.
    """

    def __init__(
        self, machine: "Machine", peer: int, tag: int, size: int, *, eager: bool
    ) -> None:
        if tag == ANY_TAG:
            raise ValueError("sends require a concrete tag")
        super().__init__(machine, peer, tag, size)
        self.eager = eager
        #: core that ran ``nm_isend``; posting from another core pays the
        #: descriptor cache transfer (paper §4.2)
        self.submit_core: int | None = None


class RecvRequest(Request):
    """An ``nm_irecv`` in flight; completes when every byte has arrived.

    ``tag=ANY_TAG`` matches any tag from the peer within the optional
    wildcard bounds (``tag_bounds``) — higher layers use the bounds to
    confine a wildcard to one communicator's tag space.
    """

    def __init__(
        self,
        machine: "Machine",
        peer: int,
        tag: int,
        size: int,
        *,
        tag_bounds: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(machine, peer, tag, size)
        if tag_bounds is not None:
            lo, hi = tag_bounds
            if lo > hi:
                raise ValueError(f"empty tag_bounds {tag_bounds}")
        self.tag_bounds = tag_bounds
        #: tag of the message this receive matched (a wildcard receive
        #: learns it at match time)
        self.matched_tag = tag

    def matches(self, tag: int) -> bool:
        return tag_accepts(self.tag, self.tag_bounds, tag)
