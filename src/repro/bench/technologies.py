"""Cross-technology comparison: MX vs. InfiniBand vs. TCP.

The paper ran its figures on Myri-10G/MX and reports "similar results
with Infiniband" (§2); the related work (§5) dismisses TCP-only
thread-safe MPIs for "perform[ing] badly for small messages".  This sweep
quantifies both statements on the simulated stack: the same pingpong over
each driver preset, plus the locking overheads measured per technology
(the absolute lock cost is network-independent — it's host-side — so the
*relative* impact shrinks as the base latency grows).
"""

from __future__ import annotations

from functools import partial
from typing import Type

from repro.bench.config import BenchConfig
from repro.bench.pingpong import Series, latency_point
from repro.bench.runner import run_sweep
from repro.net.drivers.base import Driver
from repro.net.drivers.ib import IBDriver
from repro.net.drivers.mx import MXDriver
from repro.net.drivers.tcp import TCPDriver
from repro.util.records import ResultSet

TECHNOLOGIES: dict[str, Type[Driver]] = {
    "mx": MXDriver,
    "ib": IBDriver,
    "tcp": TCPDriver,
}


def technology_latency(
    tech: str, size: int, cfg: BenchConfig, *, policy: str = "none"
) -> float:
    """One pingpong latency point (us) on the given technology."""
    try:
        driver_cls = TECHNOLOGIES[tech]
    except KeyError:
        raise ValueError(
            f"unknown technology {tech!r}; choose from {sorted(TECHNOLOGIES)}"
        ) from None
    return latency_point(Series(policy, driver=driver_cls), size, cfg)


def run_technology_sweep(cfg: BenchConfig | None = None) -> ResultSet:
    """Latency curves for every technology (no locking)."""
    cfg = cfg or BenchConfig()
    return run_sweep(
        "technologies",
        {tech: partial(technology_latency, tech, cfg=cfg) for tech in TECHNOLOGIES},
        cfg,
    )


def locking_impact_by_technology(
    cfg: BenchConfig | None = None, *, size: int = 8
) -> dict[str, float]:
    """Relative latency impact of coarse locking per technology:
    (coarse − none) / none at a small message size."""
    cfg = cfg or BenchConfig()
    out: dict[str, float] = {}
    for tech in TECHNOLOGIES:
        none = technology_latency(tech, size, cfg, policy="none")
        coarse = technology_latency(tech, size, cfg, policy="coarse")
        out[tech] = (coarse - none) / none
    return out
