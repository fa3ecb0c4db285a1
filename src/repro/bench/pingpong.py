"""Pingpong workload drivers and the one latency point of every figure.

The paper's measurement instrument is always a pingpong: single-threaded
(Fig. 3, 6, 7), concurrent with two thread pairs (Fig. 5), with bound
threads and delegated polling (Fig. 8), or with an inserted compute phase
(Fig. 9).  This module provides those drivers over a
:class:`~repro.core.session.TestBed`, and :func:`latency_point`, which
measures one (:class:`Series`, size) point of any latency figure.

All latencies are reported as half the measured round-trip, matching the
papers' convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Type

from repro.bench.config import BenchConfig
from repro.core.session import TestBed, build_testbed
from repro.core.waiting import BusyWait, WaitStrategy
from repro.net.drivers.base import Driver
from repro.net.drivers.mx import MXDriver
from repro.pioman.integration import attach_pioman
from repro.pioman.offload import IdleCoreSubmit, TaskletSubmit, set_offload
from repro.sim.process import Delay, SimGen
from repro.sim.topology import CacheTopology, quad_xeon_x5460
from repro.util.units import ns_to_us

WaitFactory = Callable[[], WaitStrategy]


@dataclass
class PingPongResult:
    """Round-trip times of one pingpong flow."""

    size: int
    rtts_ns: list[int]
    warmup: int

    @property
    def steady_rtts(self) -> list[int]:
        return self.rtts_ns[self.warmup :]

    @property
    def latency_ns(self) -> float:
        """Mean steady-state half-round-trip in nanoseconds."""
        steady = self.steady_rtts
        if not steady:
            raise ValueError("no steady-state iterations recorded")
        return sum(steady) / len(steady) / 2.0

    @property
    def latency_us(self) -> float:
        return ns_to_us(self.latency_ns)


def ping_thread(
    bed: TestBed,
    node: int,
    peer: int,
    *,
    tag: int,
    size: int,
    iterations: int,
    wait_factory: WaitFactory,
    rtts_out: list[int],
    compute_ns: int = 0,
    stagger: bool = True,
) -> SimGen:
    """Initiator: send, (compute,) wait for the echo; record the RTT.

    With ``compute_ns > 0`` this is the paper's overlap variant: the
    compute phase sits between ``nm_isend`` and ``nm_wait``.

    ``stagger`` (default on) inserts a small *stratified deterministic*
    delay before each iteration, cycling through phases of the ~1 µs
    polling loop.  On real hardware noise provides this averaging for
    free; in the deterministic simulator, without it every iteration
    aligns the arrival to the same point of the poll loop and measured
    latencies carry an arbitrary phase bias of up to one pass.
    """
    lib = bed.lib(node)
    engine = bed.engine
    for i in range(iterations):
        if stagger:
            yield Delay((i * 742 + tag * 131) % 1201, "compute")
        start = engine.now
        rreq = yield from lib.irecv(peer, tag, size)
        sreq = yield from lib.isend(peer, tag, size)
        if compute_ns:
            yield Delay(compute_ns, "compute")
        yield from lib.wait(sreq, wait_factory())
        yield from lib.wait(rreq, wait_factory())
        rtts_out.append(engine.now - start)


def pong_thread(
    bed: TestBed,
    node: int,
    peer: int,
    *,
    tag: int,
    size: int,
    iterations: int,
    wait_factory: WaitFactory,
    compute_ns: int = 0,
) -> SimGen:
    """Echoer: wait for the ping, reply, (compute,) wait for completion."""
    lib = bed.lib(node)
    for _ in range(iterations):
        rreq = yield from lib.irecv(peer, tag, size)
        yield from lib.wait(rreq, wait_factory())
        sreq = yield from lib.isend(peer, tag, size)
        if compute_ns:
            yield Delay(compute_ns, "compute")
        yield from lib.wait(sreq, wait_factory())


def run_pingpong(
    bed: TestBed,
    size: int,
    *,
    iterations: int = 24,
    warmup: int = 4,
    wait_factory: WaitFactory = BusyWait,
    compute_ns: int = 0,
    node_a: int = 0,
    node_b: int = 1,
    core_a: int = 0,
    core_b: int = 0,
    tag: int = 7,
) -> PingPongResult:
    """Run one single-flow pingpong and return its RTTs."""
    rtts: list[int] = []
    ta = bed.machine(node_a).scheduler.spawn(
        ping_thread(
            bed,
            node_a,
            node_b,
            tag=tag,
            size=size,
            iterations=iterations,
            wait_factory=wait_factory,
            rtts_out=rtts,
            compute_ns=compute_ns,
        ),
        name=f"ping-{size}",
        core=core_a,
        bound=True,
    )
    tb = bed.machine(node_b).scheduler.spawn(
        pong_thread(
            bed,
            node_b,
            node_a,
            tag=tag,
            size=size,
            iterations=iterations,
            wait_factory=wait_factory,
            compute_ns=compute_ns,
        ),
        name=f"pong-{size}",
        core=core_b,
        bound=True,
    )
    bed.run_until_done(ta, tb)
    return PingPongResult(size=size, rtts_ns=rtts, warmup=warmup)


def run_concurrent_pingpong(
    bed: TestBed,
    size: int,
    *,
    nflows: int = 2,
    iterations: int = 24,
    warmup: int = 4,
    wait_factory: WaitFactory = BusyWait,
    node_a: int = 0,
    node_b: int = 1,
) -> list[PingPongResult]:
    """Fig. 5 workload: ``nflows`` thread pairs pingpong concurrently.

    Flow *i* runs on core *i* of both nodes with its own tag, so flows
    contend only on the library's locks and the shared NIC.
    """
    ncores = bed.machine(node_a).ncores
    if nflows > ncores:
        raise ValueError(f"{nflows} flows exceed {ncores} cores")
    flows: list[tuple[object, object, list[int]]] = []
    for i in range(nflows):
        rtts: list[int] = []
        ta = bed.machine(node_a).scheduler.spawn(
            ping_thread(
                bed,
                node_a,
                node_b,
                tag=100 + i,
                size=size,
                iterations=iterations,
                wait_factory=wait_factory,
                rtts_out=rtts,
                stagger=True,
            ),
            name=f"ping{i}-{size}",
            core=i,
            bound=True,
        )
        tb = bed.machine(node_b).scheduler.spawn(
            pong_thread(
                bed,
                node_b,
                node_a,
                tag=100 + i,
                size=size,
                iterations=iterations,
                wait_factory=wait_factory,
            ),
            name=f"pong{i}-{size}",
            core=i,
            bound=True,
        )
        flows.append((ta, tb, rtts))
    bed.run_until_done(*(t for ta, tb, _ in flows for t in (ta, tb)))
    return [
        PingPongResult(size=size, rtts_ns=rtts, warmup=warmup) for _, _, rtts in flows
    ]


@dataclass(frozen=True)
class Series:
    """One curve of a latency figure: the pingpong with one mechanism set.

    ``poll_core`` attaches PIOMan on both nodes with background polling
    on that core (``None``: no PIOMan); ``offload`` then hands message
    submission to the idle cores (``"idle-core"``) or to a tasklet on the
    polling core (``"tasklet"``); ``None`` submits inline.  ``flows > 1``
    runs that many concurrent pingpongs and reports their mean.
    ``jitter_ns`` ``None`` takes the sweep config's jitter.
    """

    policy: str
    wait: WaitFactory = BusyWait
    poll_core: int | None = None
    offload: str | None = None
    topology: Callable[[], CacheTopology] = quad_xeon_x5460
    driver: Type[Driver] = MXDriver
    flows: int = 1
    jitter_ns: int | None = None
    compute_ns: int = 0

    def __post_init__(self) -> None:
        if self.offload not in (None, "idle-core", "tasklet"):
            raise ValueError(
                f"unknown offload {self.offload!r}; choose None, 'idle-core' or 'tasklet'"
            )
        if self.offload is not None and self.poll_core is None:
            raise ValueError("a submission offload needs PIOMan: set poll_core")

    def testbed(self, cfg: BenchConfig) -> TestBed:
        """The two-node testbed this series measures on, seeded by ``cfg``."""
        bed = build_testbed(
            policy=self.policy,
            topology_factory=self.topology,
            driver_cls=self.driver,
            seed=cfg.seed,
            jitter_ns=cfg.jitter_ns if self.jitter_ns is None else self.jitter_ns,
        )
        if self.poll_core is not None:
            for node in (0, 1):
                attach_pioman(
                    bed.machine(node), [bed.lib(node)], poll_cores=[self.poll_core]
                )
                if self.offload == "idle-core":
                    set_offload(bed.lib(node), IdleCoreSubmit())
                elif self.offload == "tasklet":
                    set_offload(bed.lib(node), TaskletSubmit(target_core=self.poll_core))
        return bed


def latency_point(series: Series, size: int, cfg: BenchConfig) -> float:
    """One latency point (us) of ``series`` at ``size`` on a fresh testbed.

    Module-level, so ``run_sweep`` can ship ``partial(latency_point,
    series, cfg=cfg)`` to worker processes.
    """
    bed = series.testbed(cfg)
    if series.flows > 1:
        flows = run_concurrent_pingpong(
            bed,
            size,
            nflows=series.flows,
            iterations=cfg.iterations,
            warmup=cfg.warmup,
            wait_factory=series.wait,
        )
        return sum(f.latency_us for f in flows) / len(flows)
    res = run_pingpong(
        bed,
        size,
        iterations=cfg.iterations,
        warmup=cfg.warmup,
        wait_factory=series.wait,
        compute_ns=series.compute_ns,
    )
    return res.latency_us
