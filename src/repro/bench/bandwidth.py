"""Streaming bandwidth measurements.

Figure 3's caption-level claim is about *latency*, but the text is
explicit twice that locking overheads "do not impact bandwidth".  This
driver measures sustained one-way bandwidth — a window of in-flight
messages streaming from node 0 to node 1 — per locking policy and message
size, so the claim can be checked directly rather than inferred from
constant latency offsets.
"""

from __future__ import annotations

from repro.bench.config import BenchConfig
from repro.core.session import TestBed, build_testbed
from repro.core.waiting import BusyWait
from repro.util.records import ResultRecord, ResultSet


def stream(bed: TestBed, size: int, messages: int, window: int) -> int:
    """Stream ``messages`` of ``size`` bytes from node 0 to node 1 on
    ``bed``; returns the makespan (ns) until the last receive completes.

    The sender keeps ``window`` sends in flight (non-blocking, waiting on
    the oldest), the classic bandwidth-test shape; a window of at least
    ``messages`` posts the whole burst before waiting on any send.  The
    receiver posts every receive up front.
    """
    if messages <= 0 or window <= 0:
        raise ValueError("messages and window must be > 0")
    done = {}

    def sender():
        lib = bed.lib(0)
        inflight = []
        for _ in range(messages):
            req = yield from lib.isend(1, 11, size)
            inflight.append(req)
            if len(inflight) >= window:
                yield from lib.wait(inflight.pop(0), BusyWait())
        for req in inflight:
            yield from lib.wait(req, BusyWait())

    def receiver():
        lib = bed.lib(1)
        reqs = []
        for _ in range(messages):
            req = yield from lib.irecv(0, 11, size)
            reqs.append(req)
        for req in reqs:
            yield from lib.wait(req, BusyWait())
        done["at"] = bed.engine.now

    ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0, bound=True)
    tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0, bound=True)
    bed.run_until_done(ts, tr)
    return done["at"]


def stream_bandwidth_mbps(
    policy: str,
    size: int,
    *,
    messages: int = 32,
    window: int = 4,
    seed: int = 0,
) -> float:
    """Sustained bandwidth (MB/s) streaming ``messages`` of ``size`` bytes
    with ``window`` sends in flight (:func:`stream`)."""
    makespan_ns = stream(build_testbed(policy=policy, seed=seed), size, messages, window)
    return messages * size / (makespan_ns / 1e9) / 1e6


def run_bandwidth_sweep(
    cfg: BenchConfig | None = None,
    *,
    policies: tuple[str, ...] = ("none", "coarse", "fine"),
) -> ResultSet:
    """Bandwidth (MB/s) per policy across sizes.

    The latency_us field of each record holds MB/s (the generic record
    schema's metric slot); ``extra["unit"]`` says so.
    """
    cfg = cfg or BenchConfig(sizes=(4096, 16 * 1024, 64 * 1024, 256 * 1024))
    results = ResultSet()
    for policy in policies:
        for size in cfg.sizes:
            mbps = stream_bandwidth_mbps(policy, size, seed=cfg.seed)
            results.add(
                ResultRecord(
                    "bandwidth", policy, size, mbps, extra={"unit": "MB/s"}
                )
            )
    return results
