"""Workload foundations: mechanisms, configuration, and the run harness.

A *mechanism* is one point of the paper's design space — which locking
policy the library uses (§3.1–3.2), how threads wait for completions
(§3.3), and who drives progression (inline from the waiter, PIOMan from
idle loops, or PIOMan plus timer-interrupt backstops).  The workload
subsystem measures application-shaped traffic under every mechanism, the
experiment the paper's microbenchmarks approximate.

A *scenario* (see :mod:`repro.workloads.registry`) provides a picklable
point function ``point(mech_key, variant, seed, size)`` returning the
simulated makespan in microseconds; the harness here turns a mechanism
key into a wired testbed + Mad-MPI world and runs the rank programs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.session import TestBed, build_testbed
from repro.core.waiting import (
    BusyWait,
    FixedSpinWait,
    PassiveWait,
    PiomanBusyWait,
    WaitStrategy,
)
from repro.madmpi import Communicator, ThreadLevel, create_world
from repro.pioman.integration import attach_pioman
from repro.sim.errors import SimTimeLimit
from repro.sim.process import SimGen

#: locking policies a multithreaded workload may run under.  ``"none"``
#: (the paper's thread-unsafe baseline) is deliberately excluded: every
#: scenario drives the library from several threads per rank, which is
#: exactly the usage the paper says requires thread support.
WORKLOAD_POLICIES: tuple[str, ...] = ("coarse", "fine")

#: waiting strategies (paper §3.3) by key
WAIT_FACTORIES: dict[str, Callable[[], WaitStrategy]] = {
    "busy": BusyWait,
    "pioman": PiomanBusyWait,
    "passive": PassiveWait,
    "fixed-spin": FixedSpinWait,
}

#: progression modes: who polls the network while threads compute
PROGRESSION_MODES: tuple[str, ...] = ("inline", "idle", "timer")

#: simulated-time ceiling per scenario run: generous (seconds of simulated
#: time) but finite, so a deadlocked mechanism combination fails loudly
#: instead of spinning the host forever
DEFAULT_MAX_TIME_NS = 30_000_000_000


class WorkloadError(RuntimeError):
    """A scenario failed to complete (deadlock, misconfiguration...)."""


@dataclass(frozen=True)
class Mechanism:
    """One (locking policy, waiting strategy, progression mode) triple."""

    policy: str
    waiting: str
    progression: str

    def __post_init__(self) -> None:
        if self.waiting not in WAIT_FACTORIES:
            raise ValueError(
                f"unknown waiting strategy {self.waiting!r}; "
                f"choose from {sorted(WAIT_FACTORIES)}"
            )
        if self.progression not in PROGRESSION_MODES:
            raise ValueError(
                f"unknown progression mode {self.progression!r}; "
                f"choose from {PROGRESSION_MODES}"
            )

    @property
    def key(self) -> str:
        return f"{self.policy}/{self.waiting}/{self.progression}"

    @classmethod
    def parse(cls, key: str) -> "Mechanism":
        parts = key.split("/")
        if len(parts) != 3:
            raise ValueError(
                f"mechanism key must be policy/waiting/progression, got {key!r}"
            )
        return cls(*parts)

    def valid(self) -> bool:
        """PIOMan-based strategies need PIOMan attached: the inline
        progression mode (nobody polls but the waiter itself) can only
        serve plain busy waiting."""
        if self.waiting in ("pioman", "passive", "fixed-spin"):
            return self.progression != "inline"
        return True

    def wait_factory(self) -> Callable[[], WaitStrategy]:
        return WAIT_FACTORIES[self.waiting]


def mechanism_grid(grid: str = "standard") -> list[Mechanism]:
    """The mechanism set a workload sweep measures.

    ``"standard"`` pairs each waiting strategy with its natural
    progression mode (busy → inline, the PIOMan strategies → idle loops)
    under every workload locking policy — the 8 combinations the paper's
    figures compare.  ``"full"`` is the whole valid cross product,
    including timer-interrupt progression and idle-loop polling behind
    plain busy waiting (18 combinations).
    """
    if grid == "standard":
        pairs = [
            ("busy", "inline"),
            ("pioman", "idle"),
            ("passive", "idle"),
            ("fixed-spin", "idle"),
        ]
        return [
            Mechanism(policy, waiting, progression)
            for policy in WORKLOAD_POLICIES
            for waiting, progression in pairs
        ]
    if grid == "full":
        mechs = [
            Mechanism(policy, waiting, progression)
            for policy, waiting, progression in itertools.product(
                WORKLOAD_POLICIES, sorted(WAIT_FACTORIES), PROGRESSION_MODES
            )
        ]
        return [m for m in mechs if m.valid()]
    raise ValueError(f"unknown mechanism grid {grid!r}; choose standard/full")


def build_workload_bed(
    mech: Mechanism,
    *,
    nodes: int,
    seed: int = 0,
    jitter_ns: int = 0,
) -> TestBed:
    """A testbed wired for ``mech``: locking policy on the library,
    PIOMan attached (idle loops, optionally timers) unless progression
    is inline."""
    if not mech.valid():
        raise WorkloadError(
            f"invalid mechanism {mech.key}: {mech.waiting} waiting needs "
            "a PIOMan (idle or timer progression)"
        )
    bed = build_testbed(
        nodes=nodes, policy=mech.policy, seed=seed, jitter_ns=jitter_ns
    )
    if mech.progression != "inline":
        for node in range(nodes):
            attach_pioman(
                bed.machine(node),
                [bed.lib(node)],
                timers=(mech.progression == "timer"),
            )
    return bed


@dataclass(frozen=True)
class WorkloadRun:
    """Outcome of one scenario execution under one mechanism."""

    makespan_us: float
    events_run: int
    results: list[Any]


def run_workload(
    mech_key: str,
    rank_fn: Callable[[Communicator], SimGen],
    *,
    nodes: int,
    seed: int = 0,
    thread_level: ThreadLevel = ThreadLevel.MULTIPLE,
    max_time_ns: int = DEFAULT_MAX_TIME_NS,
) -> WorkloadRun:
    """Run ``rank_fn`` on every rank of a fresh testbed under ``mech_key``.

    Each rank program runs as one simulated thread (it may spawn more, as
    the scenarios do) with the mechanism's wait strategy as the
    communicator default.  Returns the simulated makespan; raises
    :class:`WorkloadError` when the run hits ``max_time_ns`` without every
    rank finishing — a deadlocked mechanism must fail loudly, never hang.
    """
    mech = Mechanism.parse(mech_key)
    bed = build_workload_bed(mech, nodes=nodes, seed=seed)
    comms = create_world(
        bed, thread_level=thread_level, wait_factory=mech.wait_factory()
    )
    threads = [
        bed.machine(comm.rank).scheduler.spawn(
            rank_fn(comm), name=f"rank{comm.rank}", core=0, bound=True
        )
        for comm in comms
    ]
    try:
        bed.run_until_done(*threads, max_time=max_time_ns)
    except SimTimeLimit:
        pass
    if not all(t.done for t in threads):
        stuck = [t.name for t in threads if not t.done]
        raise WorkloadError(
            f"workload did not complete under {mech_key} within "
            f"{max_time_ns} ns of simulated time; stuck ranks: {stuck}"
        )
    makespan_us = bed.engine.now / 1_000
    run = WorkloadRun(
        makespan_us=makespan_us,
        events_run=bed.engine.events_run,
        results=[t.result for t in threads],
    )
    bed.shutdown()
    return run


def spawn_joinable(
    machine,
    gens: Sequence[tuple[SimGen, str, int]],
) -> Callable[[], SimGen]:
    """Spawn helper threads and return a generator-joining function.

    ``gens`` is a list of ``(generator, name, core)``; the returned
    ``join()`` generator blocks (on a semaphore, so the core is released
    for idle-loop progression) until every spawned thread finished — the
    recurring spawn-compute-join shape of the scenarios.
    """
    from repro.sim.sync import Semaphore

    sem = Semaphore(machine, 0, name="join")
    threads = [
        machine.scheduler.spawn(gen, name=name, core=core, bound=True)
        for gen, name, core in gens
    ]
    for t in threads:
        t.on_finish(lambda _t: sem.post())

    def join() -> SimGen:
        for _ in threads:
            yield from sem.wait()

    return join
