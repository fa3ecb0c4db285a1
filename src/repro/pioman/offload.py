"""Submission offloading: who performs the message submission (paper §4.2).

With *inline* submission (the default, no offload installed),
``nm_isend`` itself runs the optimizer and injects the packet.  The
paper's second step of multi-threading the engine moves that
CPU-intensive work to idle cores, so small-message submission overlaps
computation:

* :class:`IdleCoreSubmit` — the submission stays in the collect layer;
  PIOMan, invoked from an idle core's scheduler hook, detects the pending
  message and transmits it.  Cost over inline: the work descriptors cross
  a cache boundary — ~400 ns on the quad Xeon (Fig. 9, "offloading without
  tasklets").
* :class:`TaskletSubmit` — a tasklet is scheduled on a target core to run
  the library flush.  Convenient, but the tasklet state machine and its
  locking add ~1.6 µs on top of the same cache crossing: the ~2 µs
  "offloading using tasklets" curve of Fig. 9.

The cache crossing itself is charged by the library: every send request
records the core that submitted it, and posting it from another core pays
``topology.transfer_ns(submit_core, posting_core)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.process import SimGen
from repro.sim.tasklet import Tasklet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.library import NewMadeleine


class SubmitOffload:
    """Strategy object deciding who flushes freshly-submitted messages.

    Installing one stops ``isend`` from flushing inside its own library
    entry; ``after_submit`` hands the flush to someone else."""

    name: str = "abstract"

    def after_submit(self, lib: "NewMadeleine", peer: int) -> SimGen:
        """Called by ``isend`` after the submit entry (outside all locks)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<SubmitOffload {self.name}>"


class IdleCoreSubmit(SubmitOffload):
    """Idle cores pick the submission up through PIOMan's hooks."""

    name = "idle-core"

    def after_submit(self, lib: "NewMadeleine", peer: int) -> SimGen:
        # nothing to pay here: the pending message is visible through the
        # lock-free doorbells; just make sure napping idle loops look
        lib._poke_progress()
        return
        yield  # pragma: no cover - generator marker


class TaskletSubmit(SubmitOffload):
    """A tasklet on ``target_core`` runs the library flush."""

    name = "tasklet"

    def __init__(self, target_core: int = 1) -> None:
        if target_core < 0:
            raise ValueError("target_core must be >= 0")
        self.target_core = target_core
        self.scheduled = 0

    def after_submit(self, lib: "NewMadeleine", peer: int) -> SimGen:
        if self.target_core >= lib.machine.ncores:
            raise ValueError(
                f"target core {self.target_core} outside machine "
                f"({lib.machine.ncores} cores)"
            )
        self.scheduled += 1
        tasklet = Tasklet(lambda core: lib.flush(), f"nm-submit-{lib.node_id}")
        yield from lib.machine.tasklets.schedule(tasklet, self.target_core)


def set_offload(lib: "NewMadeleine", offload: SubmitOffload | None) -> None:
    """Install (or clear, with None) a submission-offload mode on ``lib``."""
    lib.submit_offload = offload
