"""Marcel's scheduler hooks.

The paper (§3.3) describes the key enabler for passive waiting: *"This
optimization requires modifications of the thread scheduler in order to add
a few hooks at key points (CPU idleness, context switches, timer
interrupts). These hooks are used to call PIOMan so as to poll the
networks."*

Three hook points are modelled:

* **idle hooks** — generator functions ``fn(core)`` run by a core's idle
  thread with the full effect vocabulary available (they may take spinlocks,
  signal semaphores, ...).  They return truthy when they performed work.
* **context-switch hooks** and **timer hooks** — *interrupt-context*
  generator functions restricted to the inline vocabulary (``Delay``,
  ``TryAcquire``/``Release``; see :func:`repro.sim.process.run_inline`),
  because a real scheduler cannot block inside a switch or an interrupt.

*Demand providers* tell idle loops whether frequent polling is currently
useful (e.g. PIOMan has pending requests); with no demand, idle threads
park until kicked, which keeps the event count of long simulations low.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Core

HookFn = Callable[["Core"], Generator[Any, Any, Any]]
DemandFn = Callable[[], bool]


class HookRegistry:
    """Per-machine registry of scheduler hooks."""

    def __init__(self) -> None:
        #: the hooks of each kind, replaced (never mutated) on
        #: (un)registration, so a pass iterating one runs a snapshot: a
        #: hook that unregisters itself mid-pass does not cut the pass short
        self.idle_hooks: tuple[HookFn, ...] = ()
        self.ctx_switch_hooks: tuple[HookFn, ...] = ()
        self.timer_hooks: tuple[HookFn, ...] = ()
        self._demand: list[DemandFn] = []

    # -- registration ----------------------------------------------------------

    def register_idle(self, fn: HookFn) -> None:
        self.idle_hooks = (*self.idle_hooks, fn)

    def register_ctx_switch(self, fn: HookFn) -> None:
        self.ctx_switch_hooks = (*self.ctx_switch_hooks, fn)

    def register_timer(self, fn: HookFn) -> None:
        self.timer_hooks = (*self.timer_hooks, fn)

    def register_demand(self, fn: DemandFn) -> None:
        self._demand.append(fn)

    def unregister_idle(self, fn: HookFn) -> None:
        hooks = list(self.idle_hooks)
        hooks.remove(fn)
        self.idle_hooks = tuple(hooks)

    @property
    def has_idle_hooks(self) -> bool:
        return bool(self.idle_hooks)

    # -- invocation ---------------------------------------------------------------

    def idle_demand(self) -> bool:
        """True when some component wants the idle loops to keep polling."""
        for fn in self._demand:
            if fn():
                return True
        return False
