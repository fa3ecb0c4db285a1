"""Per-core timer interrupts.

Marcel exposes a timer-interrupt hook (paper §3.3) so PIOMan can poll the
network even while every core runs compute threads.  The model is *soft*:
a tick charges its overhead to the core, runs the registered timer hooks in
interrupt context (inline, non-blocking — see
:func:`repro.sim.process.run_inline`), and pokes the core's idle thread.
Running compute generators are not split mid-``Delay``; for the paper's
experiments the idle-core path dominates and the timer is a liveness
backstop, which this model preserves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import EventHandle
from repro.sim.process import run_inline

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


class TimerSystem:
    """Recurring per-core ticks driving the timer hooks."""

    def __init__(self, machine: "Machine", period_ns: int | None = None) -> None:
        self.machine = machine
        self.period_ns = period_ns if period_ns is not None else machine.costs.timer_period_ns
        if self.period_ns <= 0:
            raise ValueError(f"timer period must be > 0, got {self.period_ns}")
        self._handles: dict[int, EventHandle] = {}
        self.ticks = 0

    @property
    def running(self) -> bool:
        return bool(self._handles)

    def start(self, cores: list[int] | None = None) -> None:
        """Start ticking on the given cores (default: all)."""
        indices = range(self.machine.ncores) if cores is None else cores
        for idx in indices:
            if idx not in self._handles:
                self._handles[idx] = self.machine.engine.schedule(
                    self.period_ns, self._tick, idx
                )

    def stop(self) -> None:
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()

    def _tick(self, core_index: int) -> None:
        if core_index not in self._handles or not self.machine.active:
            return
        self.ticks += 1
        core = self.machine.cores[core_index]
        cost = self.machine.costs.timer_overhead_ns
        for fn in self.machine.hooks.timer_hooks:
            ns, _ = run_inline(fn(core), core_index=core.index)
            cost += ns
        core.account("timer", cost)
        # give napping idle loops a chance to notice new work
        self.machine.scheduler.poke_idle(core_index)
        self._handles[core_index] = self.machine.engine.schedule(
            self.period_ns, self._tick, core_index
        )
