"""PIOMan: the I/O event manager of the PM2 suite.

"It handles polling in behalf of the communication library and works
closely with the thread scheduler" (paper §2).  Requests registered with
PIOMan are progressed from wherever PIOMan is invoked — a waiting thread
(:class:`~repro.core.waiting.PiomanBusyWait`), an idle core's hook, a
context switch or a timer tick.

The management of PIOMan's internal request lists is what Figure 6 prices:
+200 ns per message, charged here as ``pioman_register_ns`` when a request
enters the lists and ``pioman_complete_ns`` when its completion is
detected and the request leaves them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.costmodel import CostModel
from repro.sim.process import Delay, SimGen

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.library import NewMadeleine
    from repro.core.requests import Request
    from repro.sim.machine import Machine


class PIOMan:
    """Per-machine I/O progression engine."""

    def __init__(self, machine: "Machine", costs: CostModel | None = None) -> None:
        self.machine = machine
        self.costs = costs or CostModel()
        self.libs: list[NewMadeleine] = []
        self._pending: dict[int, Request] = {}
        #: requests whose completion callback has fired but whose
        #: management cost has not been charged yet.  Completion *pushes*
        #: here, so a poll tick touches exactly the completed requests —
        #: it never rescans the whole pending list.
        self._done_ready: list[Request] = []
        # statistics
        self.registered_total = 0
        self.completed_total = 0
        self.poll_passes = 0
        # reusable effect objects (the scheduler only reads effects)
        self._eff_pass = Delay(self.costs.pioman_pass_ns, "poll")
        self._eff_register = Delay(self.costs.pioman_register_ns, "overhead")
        self._eff_complete = Delay(self.costs.pioman_complete_ns, "overhead")

    # -- attachment ----------------------------------------------------------

    def attach(self, lib: "NewMadeleine") -> None:
        """Make this PIOMan the progression engine of ``lib``."""
        if lib.machine is not self.machine:
            raise ValueError(
                f"library of {lib.machine.name!r} cannot attach to PIOMan of "
                f"{self.machine.name!r}"
            )
        if lib in self.libs:
            raise ValueError("library already attached")
        self.libs.append(lib)
        lib.pioman = self

    # -- request lists ---------------------------------------------------------

    def register(self, req: "Request") -> SimGen:
        """Enter a request into PIOMan's lists (idempotent)."""
        if req.req_id in self._pending:
            return
        yield self._eff_register
        if req.done:
            return
        self._pending[req.req_id] = req
        self.registered_total += 1
        req.on_done(self._done_ready.append)
        # make sure napping idle loops notice the new demand
        self.machine.scheduler.poke_idle()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- polling ------------------------------------------------------------------

    def poll(self, core=None, early_exit=None) -> SimGen:
        """One PIOMan pass: progress every attached library, then handle
        completions of registered requests.  Returns True if work happened.

        ``early_exit`` is forwarded to the library passes (a busy waiter's
        own-request fast path); completion reaping still runs so the
        per-request management cost is always charged.
        """
        self.poll_passes += 1
        yield self._eff_pass
        did = False
        for lib in self.libs:
            result = yield from lib.progress(early_exit=early_exit)
            did = did or result
            if early_exit is not None and early_exit():
                break
        # reap exactly the requests whose completion was pushed onto the
        # done list — never a scan of everything pending.  Polls stay
        # reentrant at event granularity (several cores run PIOMan passes
        # concurrently): the pop-with-default below makes two passes
        # draining the same list charge each request once.
        reaped = 0
        ready = self._done_ready
        while ready:
            req = ready.pop()
            if self._pending.pop(req.req_id, None) is not None:
                yield self._eff_complete
                self.completed_total += 1
                reaped += 1
        return did or reaped > 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the observability layer (:mod:`repro.obs`).

        ``bookkeeping_ns`` is the exact request-management time charged so
        far — the +200 ns/message of Figure 6, reconstructed from the
        register/complete counters and their calibrated unit costs.
        """
        return {
            "poll_passes": self.poll_passes,
            "registered": self.registered_total,
            "completed": self.completed_total,
            "pending": len(self._pending),
            "bookkeeping_ns": (
                self.registered_total * self.costs.pioman_register_ns
                + self.completed_total * self.costs.pioman_complete_ns
            ),
        }

    def demand(self) -> bool:
        """Should idle cores keep polling?  True while requests are pending
        or any library has in-flight traffic or immediate work.

        Tracking the libraries' own request tables (not just explicitly
        registered requests) keeps the progression cores *hot* during an
        exchange, which is what makes background progression and offloaded
        submission react at cache speed (§4).
        """
        if self._pending:
            return True
        for lib in self.libs:
            if lib.has_work() or lib.has_pending_requests():
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"<PIOMan {self.machine.name} libs={len(self.libs)} "
            f"pending={self.pending_count}>"
        )
