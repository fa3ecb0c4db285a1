"""Marcel: the two-level thread scheduler of the PM2 suite, simulated.

The real Marcel is a user-level thread package that schedules many
lightweight threads over the machine's cores and exposes hooks (idle
loop, context switch, timer) that PIOMan uses to make communication
progress.  This module reproduces that behaviour on the discrete-event
engine:

* every core runs at most one simulated thread at a time;
* threads are cooperatively scheduled (Marcel threads mostly yield at
  synchronisation points — preemption is modelled only through timers
  kicking idle cores, see :mod:`repro.sim.timer`);
* context switches between *different* threads cost
  :attr:`~repro.sim.costs.SimCosts.ctx_switch_ns` (375 ns — half of the
  750 ns semaphore round trip the paper measures in §3.3);
* when a core has nothing to run it executes an *idle thread* that
  invokes the registered idle hooks — this is how PIOMan polls the
  network from idle cores (§4.1).

The scheduler interprets the effect vocabulary of
:mod:`repro.sim.process`; spinning on a held :class:`~repro.sim.sync.SpinLock`
keeps the core occupied and is accounted as ``"spin"`` time.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.errors import SimDeadlock, SimProtocolError, SimThreadError
from repro.sim.machine import Core, Machine
from repro.sim.process import (
    Acquire,
    Block,
    Delay,
    Release,
    SimGen,
    SimThread,
    Sleep,
    ThreadState,
    TryAcquire,
    WhereAmI,
    WhoAmI,
    YieldCore,
    run_inline,
)


# ---------------------------------------------------------------- dispatch table
#
# ``_advance`` is the simulator's hottest function after the engine loop
# itself: it classifies one effect per thread step with a single dict hit
# on the concrete effect class.  Any other type (effect subclasses
# included) gets no code and is rejected as an invalid effect.

_EFF_WHERE = 1
_EFF_WHO = 2
_EFF_DELAY = 3
_EFF_ACQUIRE = 4
_EFF_RELEASE = 5
_EFF_TRY = 6
_EFF_BLOCK = 7
_EFF_SLEEP = 8
_EFF_YIELD = 9

#: concrete effect class -> dispatch code
_EFFECT_CODES: dict[type, int] = {
    WhereAmI: _EFF_WHERE,
    WhoAmI: _EFF_WHO,
    Delay: _EFF_DELAY,
    Acquire: _EFF_ACQUIRE,
    Release: _EFF_RELEASE,
    TryAcquire: _EFF_TRY,
    Block: _EFF_BLOCK,
    Sleep: _EFF_SLEEP,
    YieldCore: _EFF_YIELD,
}


class Marcel:
    """The per-machine thread scheduler."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.engine = machine.engine
        self.costs = machine.costs
        #: number of thread-to-different-thread switches performed
        self.ctx_switches = 0
        self._live_threads = 0

    # ------------------------------------------------------------------ spawn

    def spawn(
        self,
        gen: SimGen,
        *,
        name: str = "thread",
        core: int | None = None,
        bound: bool = False,
    ) -> SimThread:
        """Create a thread running ``gen`` and make it runnable now.

        Args:
            gen: the generator to drive (a *called* generator function).
            core: preferred core index; with ``bound=True`` the thread never
                migrates off it.
        """
        if core is not None and not (0 <= core < self.machine.ncores):
            raise ValueError(f"no such core: {core}")
        if not isinstance(gen, Generator):
            raise TypeError(
                "spawn expects a generator (call your generator function first)"
            )
        thread = SimThread(gen, name, core=core, bound=bound)
        thread.state = ThreadState.READY
        self._live_threads += 1
        thread.on_finish(self._on_thread_finished)
        self._enqueue(thread)
        return thread

    def _on_thread_finished(self, thread: SimThread) -> None:
        self._live_threads -= 1

    def spawn_idle(self, core: Core) -> SimThread:
        """Create ``core``'s idle thread (runs only when the run queue is
        empty; drives the idle hooks)."""
        if core.idle_thread is not None:
            raise SimProtocolError(f"core {core.index} already has an idle thread")
        thread = SimThread(
            self._idle_loop(core),
            f"{self.machine.name}/idle{core.index}",
            core=core.index,
            bound=True,
            is_idle=True,
        )
        thread.state = ThreadState.READY
        thread.placed_on = core.index
        core.idle_thread = thread
        if core.current is None:
            self.engine.call_after(0, self._dispatch, core)
        return thread

    # ---------------------------------------------------------------- placement

    def _place(self, thread: SimThread) -> Core:
        """Pick a core for a runnable thread (sticky once placed)."""
        if thread.placed_on is not None and (thread.bound or thread.core is None):
            return self.machine.cores[thread.placed_on]
        if thread.core is not None:
            core = self.machine.cores[thread.core]
        elif thread.placed_on is not None:
            core = self.machine.cores[thread.placed_on]
        else:
            core = min(
                self.machine.cores,
                key=lambda c: (
                    len(c.runq) + (0 if c.current is None or c.current.is_idle else 1),
                    c.index,
                ),
            )
        thread.placed_on = core.index
        return core

    def _enqueue(self, thread: SimThread) -> None:
        core = self._place(thread)
        core.runq.append(thread)
        if self.machine.tracer is not None:
            self.machine._trace("runq", thread, core.index, str(len(core.runq)))
        if core.current is None:
            # dispatch through the event queue: spawn/wake never run the
            # target thread reentrantly inside the caller's stack
            self.engine.call_after(0, self._dispatch, core)
        elif core.current.is_idle:
            # a real thread appeared: get the idle loop out of its nap
            self.kick(core.current)

    # ---------------------------------------------------------------- dispatch

    def _dispatch(self, core: Core) -> None:
        """If the core is free, start its next thread (or the idle thread)."""
        if core.current is not None:
            return
        if core.runq:
            thread = core.runq.popleft()
            if self.machine.tracer is not None:
                self.machine._trace("runq", thread, core.index, str(len(core.runq)))
        elif (
            core.idle_thread is not None
            and not core.idle_thread.done
            and core.idle_thread.state is ThreadState.READY
        ):
            thread = core.idle_thread
        else:
            return
        core.current = thread
        thread.placed_on = core.index
        thread.state = ThreadState.RUNNING
        switch_ns = 0
        traced = self.machine.tracer is not None
        if core.last_thread is not None and core.last_thread is not thread:
            self.ctx_switches += 1
            switch_ns = self.costs.ctx_switch_ns
            switch_ns += self._run_ctx_switch_hooks(core)
            if traced:
                self.machine._trace(
                    "switch", thread, core.index, f"from {core.last_thread.name}"
                )
        elif traced:
            self.machine._trace("dispatch", thread, core.index)
        if switch_ns:
            core.account("ctxswitch", switch_ns)
            self.engine.call_after(switch_ns, self._advance, thread)
        else:
            self._advance(thread)

    def _run_ctx_switch_hooks(self, core: Core) -> int:
        """Run the context-switch hooks (interrupt context); returns their
        total cost in ns."""
        total = 0
        for fn in self.machine.hooks.ctx_switch_hooks:
            ns, _ = run_inline(fn(core), core_index=core.index)
            total += ns
        return total

    # ---------------------------------------------------------------- execution

    def _advance(self, thread: SimThread, value: Any = None) -> None:
        """Drive ``thread`` until its next non-inline effect."""
        if thread.done:
            return
        machine = self.machine
        core = machine.cores[thread.placed_on]
        assert core.current is thread, f"{thread} advanced while not current on {core}"
        send = value if value is not None else thread._resume_value
        thread._resume_value = None
        gen_send = thread.gen.send
        effect_codes = _EFFECT_CODES
        call_after = self.engine.call_after
        busy = core._busy
        while True:
            try:
                eff = gen_send(send)
            except StopIteration as stop:
                self._retire(core, thread, stop.value, None)
                return
            except BaseException as exc:  # noqa: BLE001 - deliberate fail-fast
                self._retire(core, thread, None, exc)
                raise SimThreadError(thread, f"thread {thread.name!r} raised") from exc
            send = None

            code = effect_codes.get(type(eff))
            if code == _EFF_DELAY:
                ns = eff.ns
                if ns == 0:
                    continue
                category = eff.category
                busy[category] = busy.get(category, 0) + ns
                call_after(ns, self._advance, thread)
                return
            if code == _EFF_WHERE:
                send = core.index
                continue
            if code == _EFF_WHO:
                send = thread
                continue
            if code == _EFF_ACQUIRE:
                lock = eff.lock
                if lock.is_null:
                    continue
                ns = lock.acquire_ns
                if ns:
                    busy["lock"] = busy.get("lock", 0) + ns
                call_after(ns, self._acquire_attempt, thread, lock)
                return
            if code == _EFF_RELEASE:
                lock = eff.lock
                if lock.is_null:
                    continue
                ns = lock.release_ns
                if ns:
                    busy["lock"] = busy.get("lock", 0) + ns
                call_after(ns, self._do_release, thread, lock)
                return
            if code == _EFF_TRY:
                lock = eff.lock
                if lock.is_null:
                    send = True
                    continue
                ns = lock.acquire_ns
                if ns:
                    busy["lock"] = busy.get("lock", 0) + ns
                call_after(ns, self._try_attempt, thread, lock)
                return
            if code == _EFF_BLOCK:
                if eff.queue is not None:
                    eff.queue.append(thread)
                thread.state = ThreadState.BLOCKED
                if machine.tracer is not None:
                    machine._trace("block", thread, core.index, eff.reason)
                self._leave_core(core, thread)
                return
            if code == _EFF_SLEEP:
                thread.state = ThreadState.SLEEPING
                if machine.tracer is not None and not thread.is_idle:
                    machine._trace("sleep", thread, core.index)
                if eff.ns is not None:
                    thread._sleep_handle = self.engine.schedule(
                        eff.ns, self._sleep_done, thread
                    )
                self._leave_core(core, thread)
                return
            if code == _EFF_YIELD:
                if thread.is_idle:
                    thread.state = ThreadState.READY
                    self._leave_core(core, thread)
                    return
                if core.runq:
                    thread.state = ThreadState.READY
                    core.runq.append(thread)
                    if machine.tracer is not None:
                        machine._trace(
                            "runq", thread, core.index, str(len(core.runq))
                        )
                    self._leave_core(core, thread)
                    return
                # nobody to yield to: go through the event queue so that
                # same-timestamp events interleave, then continue
                call_after(0, self._advance, thread)
                return
            raise SimProtocolError(f"thread {thread.name!r} yielded invalid effect {eff!r}")

    def _leave_core(self, core: Core, thread: SimThread) -> None:
        core.last_thread = thread
        core.current = None
        self._dispatch(core)

    def _retire(self, core: Core, thread: SimThread, result: Any, exc: BaseException | None) -> None:
        if self.machine.tracer is not None:
            self.machine._trace("retire", thread, core.index, "failed" if exc else "")
        if exc is not None:
            self.machine._record_failure(thread)
        thread._finish(result, exc)
        self._leave_core(core, thread)

    # ---------------------------------------------------------------- spinlocks

    def _acquire_attempt(self, thread: SimThread, lock: Any) -> None:
        if lock.owner is None:
            lock._grant(thread)
            lock._granted_at = self.engine.now
            self._advance(thread)
            return
        # contended: spin in place, keeping the core occupied
        owner = lock.owner
        core = self.machine.cores[thread.placed_on]
        if (
            owner.placed_on == core.index
            and owner.bound
            and owner is not thread
        ):
            raise SimDeadlock(
                f"{thread.name!r} spins on {lock.name!r} whose owner "
                f"{owner.name!r} is bound to the same core {core.index}"
            )
        if owner is thread:
            raise SimDeadlock(f"{thread.name!r} re-acquires non-recursive {lock.name!r}")
        lock.contentions += 1
        lock.spinners.append(thread)
        thread.state = ThreadState.SPINNING
        thread._spin_since = self.engine.now
        if self.machine.tracer is not None:
            self.machine._trace("spin-begin", thread, core.index, lock.name)

    def _do_release(self, thread: SimThread, lock: Any) -> None:
        if lock.owner is not thread:
            raise SimProtocolError(
                f"{thread.name!r} releases {lock.name!r} owned by "
                f"{lock.owner.name if lock.owner else None!r}"
            )
        lock.record_hold(self.engine.now)
        lock.owner = None
        if lock.spinners:
            nxt = lock.spinners.popleft()
            lock._grant(nxt)
            lock._granted_at = self.engine.now
            ncore = self.machine.cores[nxt.placed_on]
            spun = self.engine.now - nxt._spin_since
            ncore.account("spin", spun)
            nxt._spin_since = None
            nxt.state = ThreadState.RUNNING
            if self.machine.tracer is not None:
                self.machine._trace("spin-end", nxt, ncore.index, lock.name)
            handoff = self.costs.spin_handoff_ns
            ncore.account("lock", handoff)
            self.engine.call_after(handoff, self._advance, nxt)
        self._advance(thread)

    def _try_attempt(self, thread: SimThread, lock: Any) -> None:
        if lock.owner is None:
            lock._grant(thread)
            lock._granted_at = self.engine.now
            self._advance(thread, value=True)
        else:
            # sentinel needed: _advance treats None as "no value"
            thread._resume_value = False
            self._advance(thread)

    # ---------------------------------------------------------------- wake/kick

    def wake(self, thread: SimThread, value: Any = None, *, delay_ns: int = 0) -> None:
        """Make a BLOCKED thread runnable, optionally after ``delay_ns``
        (used to charge cross-core completion-transfer costs)."""
        if thread.done:
            return
        if thread.state is not ThreadState.BLOCKED:
            raise SimProtocolError(
                f"wake on {thread.name!r} in state {thread.state.value} (must be blocked)"
            )
        # mark in transit so a double wake is caught
        thread.state = ThreadState.READY
        if self.machine.tracer is not None:
            self.machine._trace("wake", thread, thread.placed_on, f"delay={delay_ns}")
        if delay_ns:
            self.engine.call_after(delay_ns, self._wake_now, thread, value)
        else:
            self._wake_now(thread, value)

    def _wake_now(self, thread: SimThread, value: Any) -> None:
        thread._resume_value = value
        self._enqueue(thread)

    def kick(self, thread: SimThread) -> None:
        """Interrupt a SLEEPING thread early (its Sleep resumes with False).

        Kicking a thread that is not sleeping is a no-op — the race where a
        sleeper wakes just before the kick is benign.
        """
        if thread.state is not ThreadState.SLEEPING:
            return
        if thread._sleep_handle is not None:
            thread._sleep_handle.cancel()
            thread._sleep_handle = None
        thread.state = ThreadState.READY
        thread._resume_value = False
        if self.machine.tracer is not None and not thread.is_idle:
            self.machine._trace("kick", thread, thread.placed_on)
        self._enqueue(thread)

    def poke_idle(self, core_index: int | None = None) -> None:
        """Wake napping idle threads so they re-check hooks/demand."""
        cores = (
            self.machine.cores
            if core_index is None
            else [self.machine.cores[core_index]]
        )
        for core in cores:
            t = core.idle_thread
            if t is not None and t.state is ThreadState.SLEEPING:
                self.kick(t)

    def _sleep_done(self, thread: SimThread) -> None:
        if thread.state is not ThreadState.SLEEPING:
            return
        thread._sleep_handle = None
        thread.state = ThreadState.READY
        thread._resume_value = True
        self._enqueue(thread)

    # ---------------------------------------------------------------- join

    def join(self, thread: SimThread) -> SimGen:
        """Generator: block until ``thread`` finishes; returns its result."""
        if thread.done:
            return thread.result
        box: list[SimThread] = []

        def finished(done_thread: SimThread) -> None:
            for waiter in box:
                self.wake(waiter, done_thread.result)
            box.clear()

        thread.on_finish(finished)
        value = yield Block(queue=box, reason=f"join:{thread.name}")
        return value

    # ---------------------------------------------------------------- idle loop

    def _idle_loop(self, core: Core) -> SimGen:
        machine = self.machine
        hooks = machine.hooks
        # one effect object each for the whole loop (the scheduler only
        # reads effects): an idle poll pass allocates nothing
        yield_core = YieldCore()
        spin = Delay(self.costs.idle_loop_ns, "idle")
        tick = Sleep(self.costs.idle_tick_ns)
        park = Sleep(None)
        while machine.active:
            if core.runq:
                yield yield_core
                continue
            yield spin
            ran = False
            # the tuple is a snapshot: (un)registration replaces it
            for fn in hooks.idle_hooks:
                if (yield from fn(core)):
                    ran = True
            if not machine.active or core.runq:
                continue
            if ran:
                continue
            yield tick if hooks.idle_demand() else park

    # ---------------------------------------------------------------- stats

    @property
    def live_threads(self) -> int:
        """Number of spawned, unfinished (non-idle) threads."""
        return self._live_threads
