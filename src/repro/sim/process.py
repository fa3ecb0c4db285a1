"""Simulated threads and the effect protocol they speak.

A simulated thread is a Python generator.  Each ``yield`` hands the scheduler
an *effect* — "compute for 200 ns", "acquire this spinlock", "block until
woken" — and the generator is resumed once the effect completes, receiving
the effect's result.  Library code composes with ``yield from``, so the whole
NewMadeleine/PIOMan stack is written as ordinary generator functions.

The primitive effects are deliberately few; higher-level synchronisation
(semaphores, conditions) is built on top in :mod:`repro.sim.sync`.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Iterable

SimGen = Generator["Effect", Any, Any]
"""Type alias for a simulated-code generator."""


class Effect:
    """Base class of everything a simulated thread may yield."""

    __slots__ = ()


class Delay(Effect):
    """Occupy the current core for ``ns`` nanoseconds.

    ``category`` tags the time for per-core accounting: ``"compute"``,
    ``"poll"``, ``"lock"``, ``"overhead"``...  (see
    :meth:`repro.sim.machine.Core.busy_ns`).
    """

    __slots__ = ("ns", "category")

    def __init__(self, ns: int, category: str = "compute") -> None:
        if ns < 0:
            raise ValueError(f"Delay must be >= 0, got {ns}")
        self.ns = int(ns)
        self.category = category

    def __repr__(self) -> str:
        return f"Delay({self.ns}, {self.category!r})"


class YieldCore(Effect):
    """Voluntarily yield the core; requeue at the back of the run queue."""

    __slots__ = ()


class Acquire(Effect):
    """Acquire a spin lock (see :class:`repro.sim.sync.SpinLock`).

    If the lock is held the thread spins: the core stays occupied and the
    elapsed time is accounted as ``"spin"``.
    """

    __slots__ = ("lock",)

    def __init__(self, lock: Any) -> None:
        self.lock = lock


class Release(Effect):
    """Release a spin lock previously acquired by this thread."""

    __slots__ = ("lock",)

    def __init__(self, lock: Any) -> None:
        self.lock = lock


class TryAcquire(Effect):
    """Non-blocking spinlock attempt; resumes with True/False."""

    __slots__ = ("lock",)

    def __init__(self, lock: Any) -> None:
        self.lock = lock


class Block(Effect):
    """Deschedule the thread until someone calls ``scheduler.wake`` on it.

    If ``queue`` is given the scheduler appends the thread to it before
    descheduling, making "enqueue self and sleep" atomic at event
    granularity.  The value passed to ``wake`` becomes the result of the
    ``yield``.
    """

    __slots__ = ("queue", "reason")

    def __init__(self, queue: Any | None = None, reason: str = "") -> None:
        self.queue = queue
        self.reason = reason


class Sleep(Effect):
    """Release the core for ``ns`` nanoseconds (timed block).

    Unlike :class:`Delay` the core is free to run other threads meanwhile.
    ``ns=None`` sleeps until kicked.  Resumes with True if the full duration
    elapsed, False if the sleep was interrupted by ``scheduler.kick``.
    """

    __slots__ = ("ns",)

    def __init__(self, ns: int | None) -> None:
        if ns is not None:
            if ns < 0:
                raise ValueError(f"Sleep must be >= 0, got {ns}")
            ns = int(ns)
        self.ns = ns


class WhereAmI(Effect):
    """Resume immediately with the index of the core the thread runs on.

    Communication code uses it to tag completions with the core that
    produced them, which prices the inter-core notification (Fig. 8).
    """

    __slots__ = ()


class WhoAmI(Effect):
    """Resume immediately with the running :class:`SimThread` itself
    (thread identity, e.g. for MPI thread-level enforcement)."""

    __slots__ = ()


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SPINNING = "spinning"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    DONE = "done"
    FAILED = "failed"


class SimThread:
    """A simulated thread: a generator plus scheduling state.

    Create via :meth:`repro.sim.scheduler.Marcel.spawn`; never instantiate
    directly in user code.

    ``__slots__``: concurrent benchmarks create one SimThread per flow per
    iteration, so the per-instance dict is measurable allocation traffic.
    """

    __slots__ = (
        "tid",
        "gen",
        "name",
        "state",
        "done",
        "core",
        "bound",
        "is_idle",
        "placed_on",
        "result",
        "exc",
        "_finish_cbs",
        "_sleep_handle",
        "_spin_since",
        "_resume_value",
    )

    _counter = 0

    def __init__(
        self,
        gen: SimGen,
        name: str,
        *,
        core: int | None = None,
        bound: bool = False,
        is_idle: bool = False,
    ) -> None:
        SimThread._counter += 1
        self.tid = SimThread._counter
        self.gen = gen
        self.name = name
        self.state = ThreadState.NEW
        #: plain attribute, not a property: a `run(until=...)` predicate
        #: may read it after every event, so the attribute read matters
        self.done = False
        #: preferred/bound core index (None = any)
        self.core = core
        #: if True the thread never migrates off :attr:`core`
        self.bound = bound
        self.is_idle = is_idle
        #: core index the thread is currently placed on (set by scheduler)
        self.placed_on: int | None = None
        self.result: Any = None
        self.exc: BaseException | None = None
        #: callbacks run when the thread finishes (completion, joins)
        self._finish_cbs: list[Callable[["SimThread"], None]] = []
        # scheduler bookkeeping
        self._sleep_handle: Any = None
        self._spin_since: int | None = None
        self._resume_value: Any = None

    @property
    def failed(self) -> bool:
        return self.state is ThreadState.FAILED

    def on_finish(self, cb: Callable[["SimThread"], None]) -> None:
        """Register ``cb(thread)`` to run when the thread completes."""
        if self.done:
            cb(self)
        else:
            self._finish_cbs.append(cb)

    def _finish(self, result: Any, exc: BaseException | None) -> None:
        self.result = result
        self.exc = exc
        self.state = ThreadState.FAILED if exc is not None else ThreadState.DONE
        self.done = True
        cbs, self._finish_cbs = self._finish_cbs, []
        for cb in cbs:
            cb(self)

    def __repr__(self) -> str:
        return f"<SimThread {self.tid} {self.name!r} {self.state.value}>"


def run_inline(gen: SimGen, *, core_index: int | None = None) -> tuple[int, Any]:
    """Drive a generator to completion *outside* the scheduler.

    Only non-blocking effects are allowed — this is the restricted
    execution context of interrupt-style hooks (context-switch and timer
    hooks), which must not block or spin:

    * :class:`Delay` — durations are summed into the returned total;
    * :class:`TryAcquire` / :class:`Release` — non-blocking lock attempts;
    * :class:`WhereAmI` — answered with ``core_index`` (the interrupted
      core, supplied by the caller).

    Returns ``(total_delay_ns, return_value)``.

    Raises:
        repro.sim.errors.SimProtocolError: on any blocking effect.
    """
    from repro.sim.errors import SimProtocolError

    total = 0
    try:
        eff = next(gen)
        while True:
            if isinstance(eff, Delay):
                total += eff.ns
                eff = gen.send(None)
            elif isinstance(eff, TryAcquire):
                ok = eff.lock.try_acquire_inline()
                total += eff.lock.acquire_ns
                eff = gen.send(ok)
            elif isinstance(eff, Release):
                eff.lock.release_inline()
                total += eff.lock.release_ns
                eff = gen.send(None)
            elif isinstance(eff, WhereAmI):
                eff = gen.send(core_index)
            else:
                raise SimProtocolError(
                    f"effect {eff!r} is not allowed in inline (interrupt) context"
                )
    except StopIteration as stop:
        return total, stop.value


def sequence(effects: Iterable[Effect]) -> SimGen:
    """A generator yielding the given effects in order (testing helper)."""
    result = None
    for eff in effects:
        result = yield eff
    return result
