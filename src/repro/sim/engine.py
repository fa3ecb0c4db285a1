"""The discrete-event core: an integer-nanosecond clock and an event queue.

Everything above (scheduler, NICs, timers) is expressed as callbacks
scheduled on a single :class:`Engine`.  Two simulated *nodes* of a cluster
share one engine — they share a clock, exactly like two real machines share
wall-clock time — while each node has its own :class:`~repro.sim.machine.Machine`.

Determinism: ties at equal timestamps are broken by insertion order, so a
given program always produces the same trace.

Queue layout (the hot path of the whole simulator):

* future events live in a heap of ``(time, seq, fn, args, handle)``
  tuples — tuple comparison resolves on the leading ints in C, so heap
  operations never call back into Python comparison methods;
* events *at the current timestamp* live in a FIFO *now bucket* (a
  deque) of tuples of the same shape, and the run loop dispatches only
  from the bucket.  When the bucket is drained and the clock advances to
  the heap's next time *t*, every heap entry at *t* is popped into the
  emptied bucket in sequence order.  Events scheduled at *t* with delay
  0 (the dispatch/wake traffic) append after them and never touch the
  heap.  Order is structural: the heap never holds an entry at the
  current time, every popped entry predates the clock reaching *t*, and
  the bucket is FIFO;
* fire-and-forget events (:meth:`Engine.call_after` / :meth:`Engine.call_at`
  — the scheduler/NIC/PIOMan fast path for the dominant short fixed-delay
  events) carry no :class:`EventHandle` at all: the old per-event handle
  allocation is gone, and the cancel token survives only on the
  user-facing :meth:`schedule`/:meth:`schedule_at` API, shrunk to a
  two-slot object.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable

from repro.sim.errors import SimDeadlock, SimTimeLimit


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("cancelled", "_engine")

    def __init__(self, engine: "Engine | None") -> None:
        self.cancelled = False
        #: back-reference for O(1) pending() accounting; cleared when the
        #: event fires so a late cancel() is a no-op
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing."""
        engine = self._engine
        if engine is not None:
            self._engine = None
            self.cancelled = True
            engine._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self._engine is None:
            state = "fired"
        else:
            state = "pending"
        return f"<EventHandle {state}>"


class Engine:
    """Discrete-event loop with an integer nanosecond clock."""

    def __init__(self) -> None:
        self.now: int = 0
        #: future events: (time, seq, fn, args, handle-or-None) tuples
        self._heap: list[tuple] = []
        #: events at the *current* timestamp, FIFO, in the heap's tuple
        #: shape: the heap's entries for this time, then delay-0 events
        #: as (0, 0, fn, args, handle-or-None)
        self._bucket: deque[tuple] = deque()
        self._seq = 0
        #: scheduled, not-yet-run, not-cancelled events (O(1) pending())
        self._live = 0
        self._events_run = 0
        self._running = False
        #: set by :meth:`stop`; the running loop returns after the event
        self._stopping = False

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise ValueError(f"cannot schedule in the past: delay {delay_ns}")
        handle = EventHandle(self)
        self._live += 1
        if delay_ns:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self.now + delay_ns, seq, fn, args, handle))
        else:
            self._bucket.append((0, 0, fn, args, handle))
        return handle

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time_ns``."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise ValueError(f"cannot schedule in the past: t={time_ns} < now={self.now}")
        handle = EventHandle(self)
        self._live += 1
        if time_ns > self.now:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (time_ns, seq, fn, args, handle))
        else:
            self._bucket.append((0, 0, fn, args, handle))
        return handle

    def call_after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancel token is created, so
        the event costs one heap tuple (or one bucket entry for delay 0)
        and nothing else.

        This is the interface the scheduler/NIC/PIOMan hot paths use for
        the dominant short fixed-delay events (context switches, lock
        costs, poll ticks, delay-0 dispatches).
        """
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise ValueError(f"cannot schedule in the past: delay {delay_ns}")
        self._live += 1
        if delay_ns:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self.now + delay_ns, seq, fn, args, None))
        else:
            self._bucket.append((0, 0, fn, args, None))

    def call_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (no cancel token)."""
        time_ns = int(time_ns)
        if time_ns < self.now:
            raise ValueError(f"cannot schedule in the past: t={time_ns} < now={self.now}")
        self._live += 1
        if time_ns > self.now:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (time_ns, seq, fn, args, None))
        else:
            self._bucket.append((0, 0, fn, args, None))

    def pending(self) -> int:
        """Number of queued, not-yet-cancelled events (O(1))."""
        return self._live

    @property
    def events_run(self) -> int:
        return self._events_run

    # -- execution -------------------------------------------------------------

    def stop(self) -> None:
        """Make the running :meth:`run` return after the current event.

        The queue stays intact, so a later :meth:`run` resumes where this
        one stopped.  Outside a run this does nothing.
        """
        if self._running:
            self._stopping = True

    def run_until_done(self, *threads: Any, max_time: int | None = None) -> None:
        """Run until every thread in ``threads`` has finished.

        Completion is signalled by the threads' ``on_finish`` callbacks, so
        no predicate runs per event; the run ends after the event in which
        the last thread finishes.  Returns at once, running nothing, when
        every thread is already done.

        Raises:
            SimDeadlock: the queue drained with threads still unfinished
                (they are named in the message).
            SimTimeLimit: the clock would pass ``max_time``.
        """
        waiting = [t for t in threads if not t.done]
        if not waiting:
            return
        left = [len(waiting)]

        def finished(_thread: Any) -> None:
            left[0] -= 1
            if left[0] == 0:
                self.stop()

        for thread in waiting:
            thread.on_finish(finished)
        try:
            if self.run(max_time=max_time) == "drained":
                stuck = [t.name for t in waiting if not t.done]
                raise SimDeadlock(
                    f"event queue drained at t={self.now} ns with threads "
                    f"still unfinished: {stuck}"
                )
        finally:
            left[0] = -1  # a callback firing in a later run stops nothing

    def run(
        self,
        until: Callable[[], bool] | None = None,
        *,
        max_time: int | None = None,
        max_events: int | None = None,
    ) -> str:
        """Process events until a stop condition holds.

        Args:
            until: optional predicate checked after every event; the loop
                stops as soon as it returns True.  To wait for threads to
                finish, use :meth:`run_until_done` instead: it costs
                nothing per event.
            max_time: raise :class:`SimTimeLimit` if the clock would pass
                this absolute time (safety net against runaway idle loops).
            max_events: raise :class:`SimTimeLimit` after this many events.

        Returns:
            ``"stopped"`` if an event called :meth:`stop`, ``"until"`` if
            the predicate stopped the run, ``"drained"`` if the event queue
            emptied first.

        Raises:
            SimDeadlock: the queue drained while ``until`` was given and
                still false — the awaited condition can never happen.
            SimTimeLimit: a safety limit tripped.  The queue stays
                consistent: the event that would have crossed the limit is
                *not* consumed, so a caught limit can be followed by
                diagnostics (or a resumed run with a larger limit).
        """
        if self._running:
            raise RuntimeError("Engine.run is not reentrant")
        if until is not None and until():
            return "until"
        self._running = True
        # the loop below is the simulator's hottest code: locals shave an
        # attribute lookup per touch, and the unlimited/no-predicate run —
        # the common case — skips every guard it can
        heap = self._heap
        bucket = self._bucket
        popleft = bucket.popleft
        append = bucket.append
        events_this_run = 0
        try:
            while True:
                while bucket:
                    entry = popleft()
                    handle = entry[4]
                    if handle is not None:
                        if handle.cancelled:
                            continue
                        handle._engine = None
                    if max_events is not None and events_this_run >= max_events:
                        if handle is not None:
                            handle._engine = self  # still cancellable
                        bucket.appendleft(entry)  # leave the event queued
                        raise SimTimeLimit(
                            f"simulation exceeded max_events={max_events}"
                        )
                    self._live -= 1
                    events_this_run += 1
                    entry[2](*entry[3])
                    if self._stopping:
                        return "stopped"
                    if until is not None and until():
                        return "until"
                if not heap:
                    break
                # bucket drained: advance the clock to the next time and
                # move every heap entry at that time into the bucket
                time = heap[0][0]
                if max_time is not None and time > max_time:
                    handle = heap[0][4]
                    if handle is not None and handle.cancelled:
                        heappop(heap)  # cancelled: drop silently
                        continue
                    raise SimTimeLimit(
                        f"simulation exceeded max_time={max_time} ns "
                        f"(now={self.now})"
                    )
                self.now = time
                append(heappop(heap))
                while heap and heap[0][0] == time:
                    append(heappop(heap))
            if until is not None:
                raise SimDeadlock(
                    f"event queue drained at t={self.now} ns but the awaited "
                    f"condition never became true"
                )
            return "drained"
        finally:
            self._events_run += events_this_run
            self._running = False
            self._stopping = False
