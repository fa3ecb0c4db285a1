"""The benchmark's workloads: what one pass runs and what it must produce.

* ``pingpong-fine``: the Fig. 3 instrument.  Two nodes, fine locking, busy
  waiting, inline progression, 1 KiB eager messages, one in flight.  The
  driver below keeps every request it posts, so the run can check that
  each ends done and read the simulated stages from ``Request.timeline``.
* ``stencil-pioman``: ``run_stencil("fine/passive/idle")`` on 4 ranks with
  4 KiB halos; PIOMan polls from idle cores and waits block on semaphores.
* ``sweep-suite``: the 11 ``--quick`` figures plus the 5 quick scenarios
  of the standard workload matrix at 2 workers, cold against an empty
  point cache and then warm from it.

All are closed loops driven from this process; the seed reaches only the
generated inputs (``build_testbed``, ``run_stencil``, ``run_scenario``).
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from measure import Ledger, sha256_json

from repro.bench import cache as point_cache
from repro.bench import figures
from repro.core import session
from repro.core.session import TestBed
from repro.core.waiting import BusyWait, WaitStrategy
from repro.sim.process import Delay
from repro.workloads import base as workload_base
from repro.workloads import matrix, registry
from repro.workloads.stencil import run_stencil

PINGPONG_SIZE = 1024
PINGPONG_ITERATIONS = 4_000
#: leading iterations left out of the latency mean (as in ``run_pingpong``)
PINGPONG_WARMUP = 4
PINGPONG_TAG = 7

STENCIL_MECH = "fine/passive/idle"
STENCIL_HALO_BYTES = 4_096
STENCIL_STEPS = 150

SWEEP_WORKERS = 2
#: warm passes per cold pass: a warm pass takes ~0.1 s, so its median needs
#: many of them
WARM_PASSES = 20


# -- pingpong ------------------------------------------------------------------


@dataclass
class PingPong:
    """One pingpong pass: its testbed, round-trip times and requests."""

    bed: TestBed
    rtts_ns: list[int]
    #: per iteration: (ping send, pong recv, pong send, ping recv)
    requests: list[tuple] = field(default_factory=list)

    @property
    def messages(self) -> int:
        return 2 * len(self.rtts_ns)

    @property
    def latency_ns(self) -> float:
        """Mean steady-state half round trip (``PingPongResult.latency_ns``)."""
        steady = self.rtts_ns[PINGPONG_WARMUP:]
        return sum(steady) / len(steady) / 2.0


def pingpong(
    bed: TestBed,
    iterations: int,
    *,
    wait_factory: Callable[[], WaitStrategy] = BusyWait,
) -> PingPong:
    """Run one pingpong flow between nodes 0 and 1 (core 0 on each).

    Same schedule as :func:`repro.bench.pingpong.run_pingpong`, including
    its stratified stagger before each iteration, but every request is
    kept.
    """
    lib_a, lib_b = bed.lib(0), bed.lib(1)
    engine = bed.engine
    size, tag = PINGPONG_SIZE, PINGPONG_TAG
    result = PingPong(bed, [])
    ping_reqs: list[tuple] = []
    pong_reqs: list[tuple] = []

    def ping():
        for i in range(iterations):
            yield Delay((i * 742 + tag * 131) % 1201, "compute")
            start = engine.now
            rreq = yield from lib_a.irecv(1, tag, size)
            sreq = yield from lib_a.isend(1, tag, size)
            yield from lib_a.wait(sreq, wait_factory())
            yield from lib_a.wait(rreq, wait_factory())
            result.rtts_ns.append(engine.now - start)
            ping_reqs.append((sreq, rreq))

    def pong():
        for _ in range(iterations):
            rreq = yield from lib_b.irecv(0, tag, size)
            yield from lib_b.wait(rreq, wait_factory())
            sreq = yield from lib_b.isend(0, tag, size)
            yield from lib_b.wait(sreq, wait_factory())
            pong_reqs.append((rreq, sreq))

    ta = bed.machine(0).scheduler.spawn(ping(), name="ping", core=0, bound=True)
    tb = bed.machine(1).scheduler.spawn(pong(), name="pong", core=0, bound=True)
    bed.run(until=lambda: ta.done and tb.done)
    result.requests = [
        (ping_send, pong_recv, pong_send, ping_recv)
        for (ping_send, ping_recv), (pong_recv, pong_send) in zip(ping_reqs, pong_reqs)
    ]
    return result


#: simulated stages of one message, as (stage, from stamp, to stamp); the
#: send-side stamps come from the send request, the rest from the
#: matching receive
STAGES = (
    ("submit_to_inject", ("send", "submitted"), ("send", "injected")),
    ("inject_to_arrive", ("send", "injected"), ("recv", "arrived")),
    ("arrive_to_match", ("recv", "arrived"), ("recv", "matched")),
    ("match_to_complete", ("recv", "matched"), ("recv", "completed")),
)


def message_stages(run: PingPong) -> dict[str, float]:
    """Mean simulated ns per stage over the steady iterations' messages."""
    totals = dict.fromkeys((stage for stage, _, _ in STAGES), 0)
    count = 0
    for ping_send, pong_recv, pong_send, ping_recv in run.requests[PINGPONG_WARMUP:]:
        for send, recv in ((ping_send, pong_recv), (pong_send, ping_recv)):
            reqs = {"send": send.timeline, "recv": recv.timeline}
            for stage, (a_side, a), (b_side, b) in STAGES:
                totals[stage] += reqs[b_side][b] - reqs[a_side][a]
            count += 1
    return {stage: total / count for stage, total in totals.items()}


def pingpong_digest(run: PingPong) -> str:
    return sha256_json(run.rtts_ns)


def check_pingpong(ledger: Ledger, run: PingPong, what: str) -> None:
    """Every posted request ended done with monotone stamps."""
    ledger.check(
        all(req.done for quad in run.requests for req in quad)
        and len(run.requests) == len(run.rtts_ns),
        f"{what}: a posted request did not end done",
    )
    ordered = True
    for ping_send, pong_recv, pong_send, ping_recv in run.requests:
        for send, recv in ((ping_send, pong_recv), (pong_send, ping_recv)):
            s, r = send.timeline, recv.timeline
            stamps = (s["submitted"], s["injected"], r["arrived"], r["matched"],
                      r["completed"])
            ordered = ordered and all(a <= b for a, b in zip(stamps, stamps[1:]))
    ledger.check(ordered, f"{what}: request timeline stamps are not monotone")
    check_bed(ledger, run.bed, what)


# -- conservation laws -----------------------------------------------------------


def nic_bytes(bed: TestBed) -> tuple[int, int]:
    """(transmitted, received) bytes summed over every NIC of the bed."""
    nics = [nic for link in bed.fabric.links for nic in link]
    return sum(n.tx_bytes for n in nics), sum(n.rx_bytes for n in nics)


def check_bed(ledger: Ledger, bed: TestBed, what: str) -> None:
    """Conservation laws of a finished testbed, from public counters."""
    tx, rx = nic_bytes(bed)
    ledger.check(tx == rx, f"{what}: NICs sent {tx} bytes but received {rx}")
    for lib in bed.libs:
        ledger.check(
            not lib.has_pending_requests() and lib.pending_incomplete() == 0,
            f"{what}: node {lib.node_id} still tracks unfinished requests",
        )
        if lib.pioman is not None:
            stats = lib.pioman.stats()
            ledger.check(
                stats["registered"] == stats["completed"] and stats["pending"] == 0,
                f"{what}: node {lib.node_id} PIOMan stats {stats}",
            )


def counters(beds: list[TestBed]) -> dict[str, int]:
    """Exact work counters of finished testbeds, from public attributes."""
    libs = [lib for bed in beds for lib in bed.libs]
    nics = [nic for bed in beds for link in bed.fabric.links for nic in link]
    return {
        "events": sum(bed.engine.events_run for bed in beds),
        "msgs": sum(lib.isend_count for lib in libs),
        "packets": sum(nic.tx_packets for nic in nics),
        "tx_bytes": sum(nic.tx_bytes for nic in nics),
        "lock_acquires": sum(
            row["acquisitions"] for lib in libs for row in lib.policy.lock_stats()
        ),
        "progress_passes": sum(lib.progress_passes for lib in libs),
        "pioman_polls": sum(lib.pioman.poll_passes for lib in libs if lib.pioman),
    }


@contextlib.contextmanager
def collect_beds() -> Iterator[list[TestBed]]:
    """Keep every testbed the workload harness builds (for the checks)."""
    beds: list[TestBed] = []
    original = workload_base.build_testbed

    def keep(*args, **kwargs):
        bed = original(*args, **kwargs)
        beds.append(bed)
        return bed

    workload_base.build_testbed = keep
    try:
        yield beds
    finally:
        workload_base.build_testbed = original


# -- stencil ---------------------------------------------------------------------


@dataclass
class Stencil:
    makespan_us: float
    events: int
    beds: list[TestBed]


def stencil(seed: int) -> Stencil:
    with collect_beds() as beds:
        run = run_stencil(
            STENCIL_MECH, seed=seed, steps=STENCIL_STEPS, halo_bytes=STENCIL_HALO_BYTES
        )
    return Stencil(run.makespan_us, run.events_run, beds)


def stencil_digest(run: Stencil) -> str:
    return sha256_json([run.makespan_us, run.events])


def check_stencil(ledger: Ledger, run: Stencil, what: str) -> None:
    ledger.check(len(run.beds) == 1, f"{what}: expected one testbed")
    for bed in run.beds:
        check_bed(ledger, bed, what)


# -- timed passes of the simulated workloads ----------------------------------------


def pingpong_pass(seed: int, ledger: Ledger) -> tuple[float, dict]:
    """One checked ``pingpong-fine`` pass: (host seconds, outputs that
    every pass must repeat).  Building the testbed is set-up, not timed."""
    bed = session.build_testbed(policy="fine", seed=seed)
    t0 = time.perf_counter()
    run = pingpong(bed, PINGPONG_ITERATIONS)
    wall = time.perf_counter() - t0
    check_pingpong(ledger, run, "pingpong pass")
    return wall, {
        "rtts": pingpong_digest(run),
        "sim_latency_ns": run.latency_ns,
        **counters([bed]),
    }


def stencil_pass(seed: int, ledger: Ledger) -> tuple[float, dict]:
    """One checked ``stencil-pioman`` pass (``run_stencil`` builds its own
    testbed, so that is timed too)."""
    t0 = time.perf_counter()
    run = stencil(seed)
    wall = time.perf_counter() - t0
    check_stencil(ledger, run, "stencil pass")
    return wall, {
        "digest": stencil_digest(run),
        "sim_makespan_us": run.makespan_us,
        **counters(run.beds),
    }


SIM_PASSES = {"pingpong-fine": pingpong_pass, "stencil-pioman": stencil_pass}


# -- sweep suite -------------------------------------------------------------------


@contextlib.contextmanager
def figure_results() -> Iterator[dict]:
    """Capture each figure's (ResultSet, checks) while ``render`` runs it."""
    captured: dict[str, tuple] = {}
    saved = dict(figures.FIGURES)

    def capture(name: str, fn: Callable) -> Callable:
        def run(*args, **kwargs):
            captured[name] = fn(*args, **kwargs)
            return captured[name]

        return run

    figures.FIGURES.update({name: capture(name, fn) for name, fn in saved.items()})
    try:
        yield captured
    finally:
        figures.FIGURES.update(saved)


@dataclass
class SuitePass:
    wall_s: float
    #: ResultSet digest per figure / scenario
    digests: dict[str, str]
    #: (claim id, measured, passed) for every paper claim
    claims: list[tuple[str, float, bool]]
    cache: point_cache.CacheStats


def suite_pass(seed: int, workers: int = SWEEP_WORKERS) -> SuitePass:
    """Render every quick figure and run every quick scenario once."""
    before = point_cache.stats()
    digests: dict[str, str] = {}
    t0 = time.perf_counter()
    with figure_results() as captured, contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(figures.FIGURES):
            figures.render(name, quick=True, workers=workers)
        for name in registry.names():
            rs = matrix.run_scenario(name, quick=True, seed=seed, workers=workers)
            digests[f"scenario:{name}"] = rs.digest()
    wall_s = time.perf_counter() - t0
    claims = []
    for name, (rs, checks) in sorted(captured.items()):
        digests[f"figure:{name}"] = rs.digest()
        claims.extend((c.claim_id, value, c.check(value)) for c, value in checks)
    return SuitePass(wall_s, digests, claims, point_cache.stats().delta(before))


@contextlib.contextmanager
def fresh_cache(scratch: Path) -> Iterator[Path]:
    """An empty point cache under ``scratch`` for the block."""
    scratch.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    saved = {k: os.environ.get(k) for k in (point_cache.CACHE_DIR_ENV, point_cache.CACHE_ENV)}
    os.environ[point_cache.CACHE_DIR_ENV] = str(root)
    os.environ[point_cache.CACHE_ENV] = "1"
    try:
        yield root
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(root, ignore_errors=True)


def check_suite(ledger: Ledger, run: SuitePass, what: str, size: dict, *, warm: bool) -> None:
    """Every paper claim is checked and holds; a cold pass misses every
    point, a warm one hits every point.  ``size`` holds the expected
    ``sweep.points`` and ``sweep.claims``."""
    ledger.expect_equal(len(run.claims), size["sweep.claims"], f"{what}: claims checked")
    for claim_id, value, ok in run.claims:
        ledger.check(ok, f"{what}: paper claim {claim_id} failed ({value:.4g})")
    points = size["sweep.points"]
    hits, misses = (points, 0) if warm else (0, points)
    ledger.expect_equal(
        (run.cache.hits, run.cache.misses), (hits, misses), f"{what}: cache (hits, misses)"
    )
