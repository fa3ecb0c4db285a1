"""Halo-exchange stencil workload (compute/communicate phases).

The generalized form of ``examples/hybrid_stencil.py``: a 1-D domain
decomposed across the ranks, each time step exchanging halos through one
communication thread *per neighbour* (legal only under
``MPI_THREAD_MULTIPLE``) and then computing with one slice thread per
core.  The sweep axis is the halo message size — the knob that moves the
scenario between latency-bound (8 B boundary floats, the heat-equation
case) and bandwidth-bound (multi-KB ghost layers of higher-order or
multi-field stencils).

With a real ``field`` the scenario computes actual heat-equation physics
(the example verifies it against a serial reference); workload sweeps run
the synthetic form, identical communication and compute shape without the
numpy payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.madmpi import Communicator
from repro.sim.process import Delay, SimGen
from repro.sim.sync import Semaphore
from repro.workloads.base import WorkloadRun, run_workload, spawn_joinable
from repro.workloads.registry import Scenario, register

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: default scenario shape
RANKS = 4
STEPS = 8
#: simulated cost of one stencil update of one subdomain slice
COMPUTE_NS_PER_SLICE = 2_000
#: explicit-Euler stability factor (dt*alpha/dx^2) for the physics form
ALPHA = 0.4


@dataclass(frozen=True)
class StencilRun:
    """Outcome of one stencil execution."""

    makespan_us: float
    events_run: int
    #: gathered global field (physics form only)
    field: Any = None


def _rank_program(
    comm: Communicator,
    *,
    steps: int,
    halo_bytes: int,
    compute_ns: int,
    u0: np.ndarray | None,
    alpha: float,
) -> SimGen:
    """One rank: per step, concurrent halo threads then compute slices."""
    rank, size = comm.rank, comm.size
    machine = comm.lib.machine
    ncores = machine.ncores
    u = None
    if u0 is not None:  # physics form: the synthetic form never loads numpy
        import numpy as np

        points = len(u0) // size
        u = u0[rank * points : (rank + 1) * points].copy()

    for step in range(steps):
        halos: dict[str, Any] = {"left": None, "right": None}
        tag = 1_000 + step

        def exchange(direction: str, neighbour: int, boundary: Any) -> SimGen:
            value, _ = yield from comm.Sendrecv(
                neighbour, halo_bytes, neighbour, halo_bytes,
                sendtag=tag, recvtag=tag, payload=boundary,
            )
            halos[direction] = value

        gens = []
        if rank > 0:
            boundary = float(u[0]) if u is not None else None
            gens.append(
                (exchange("left", rank - 1, boundary),
                 f"halo-left-{rank}-{step}", 1 % ncores)
            )
        if rank < size - 1:
            boundary = float(u[-1]) if u is not None else None
            gens.append(
                (exchange("right", rank + 1, boundary),
                 f"halo-right-{rank}-{step}", 2 % ncores)
            )
        join = spawn_joinable(machine, gens)
        yield from join()

        # ---- compute phase: one slice thread per core ----
        if u is not None:
            left = halos["left"] if halos["left"] is not None else u[0]
            right = halos["right"] if halos["right"] is not None else u[-1]
            padded = np.concatenate(([left], u, [right]))
            nxt = u + alpha * (padded[2:] - 2 * u + padded[:-2])
            if rank == 0:
                nxt[0] = u[0]
            if rank == size - 1:
                nxt[-1] = u[-1]

        def compute_slice() -> SimGen:
            yield Delay(compute_ns, "compute")

        compute_sem = Semaphore(machine, 0, name=f"comp{rank}s{step}")

        def slice_thread() -> SimGen:
            yield from compute_slice()
            compute_sem.post()

        for c in range(ncores):
            machine.scheduler.spawn(
                slice_thread(), name=f"slice{rank}-{step}-{c}", core=c,
                bound=True,
            )
        for _ in range(ncores):
            yield from compute_sem.wait()
        if u is not None:
            u = nxt

    if u is not None:
        gathered = yield from comm.Gather(u, root=0)
        if rank == 0:
            return np.concatenate(gathered)
    return None


def run_stencil(
    mech_key: str,
    *,
    seed: int = 0,
    ranks: int = RANKS,
    steps: int = STEPS,
    halo_bytes: int = 8,
    compute_ns: int = COMPUTE_NS_PER_SLICE,
    field: np.ndarray | None = None,
    alpha: float = ALPHA,
) -> StencilRun:
    """Run the stencil under one mechanism; physics form when ``field``
    (the full initial condition, length divisible by ``ranks``) is given."""
    if field is not None and len(field) % ranks:
        raise ValueError(
            f"field length {len(field)} not divisible by {ranks} ranks"
        )

    def rank_fn(comm: Communicator) -> SimGen:
        result = yield from _rank_program(
            comm, steps=steps, halo_bytes=halo_bytes, compute_ns=compute_ns,
            u0=field, alpha=alpha,
        )
        return result

    run: WorkloadRun = run_workload(
        mech_key, rank_fn, nodes=ranks, seed=seed
    )
    return StencilRun(
        makespan_us=run.makespan_us,
        events_run=run.events_run,
        field=run.results[0],
    )


def stencil_point(mech_key: str, variant: str, seed: int, size: int) -> float:
    """Sweep point: makespan (us) with ``size``-byte halo messages."""
    return run_stencil(mech_key, seed=seed, halo_bytes=size).makespan_us


register(
    Scenario(
        name="stencil",
        title="Halo-exchange stencil (compute/communicate phases)",
        description=(
            "1-D domain decomposition over 4 ranks; per step, one "
            "communication thread per neighbour exchanges halos "
            "concurrently (MPI_THREAD_MULTIPLE), then one compute slice "
            "per core runs.  Axis: halo message size in bytes."
        ),
        axis="halo bytes",
        sizes=(8, 256, 4096, 32768),
        quick_sizes=(8, 4096),
        point=stencil_point,
    )
)
