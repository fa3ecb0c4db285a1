"""Measurement functions for the locking experiments (Figures 3 and 5).

All point functions are module-level and composed with
:func:`functools.partial`, so sweeps can cross a process boundary when
``run_sweep`` runs on more than one worker.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.fit import constant_offset, ratio_series
from repro.bench.config import BenchConfig
from repro.bench.pingpong import run_concurrent_pingpong, run_pingpong
from repro.bench.runner import run_sweep
from repro.core.session import build_testbed
from repro.util.records import ResultSet

FIG3_POLICIES = ("none", "coarse", "fine")


def fig3_point(policy: str, size: int, cfg: BenchConfig) -> float:
    """Single-thread pingpong latency (us) under one locking policy."""
    bed = build_testbed(policy=policy, seed=cfg.seed, jitter_ns=cfg.jitter_ns)
    res = run_pingpong(
        bed, size, iterations=cfg.iterations, warmup=cfg.warmup
    )
    return res.latency_us


def run_fig3(cfg: BenchConfig | None = None) -> ResultSet:
    """Figure 3: impact of locking on latency (1 B – 2 KB)."""
    cfg = cfg or BenchConfig()
    return run_sweep(
        "fig3",
        {p: partial(fig3_point, p, cfg=cfg) for p in FIG3_POLICIES},
        cfg,
    )


def fig3_offsets(results: ResultSet) -> dict[str, float]:
    """Per-policy constant offsets over the no-locking baseline, in ns."""
    base = results.series("none")
    out = {}
    for policy in ("coarse", "fine"):
        fit = constant_offset(base, results.series(policy))
        out[policy] = fit.offset_ns * 1_000  # series are in us
    return out


#: flow count at which the simulated node reaches the message-rate
#: saturation the 2009 testbed hit with two threads.  The simulated
#: MX path has roughly twice the per-message capacity of the paper's
#: NewMadeleine/MX stack, so the Fig. 5 saturation point shifts from 2
#: concurrent flows to 4; the coarse-vs-fine contrast is evaluated there
#: (see EXPERIMENTS.md).
FIG5_SATURATION_FLOWS = 4

#: per-message timing noise used for the concurrent runs: real hardware
#: noise is what keeps concurrent flows colliding on the locks instead of
#: settling into a deterministic anti-phase schedule
FIG5_JITTER_NS = 120


def fig5_single_point(size: int, cfg: BenchConfig) -> float:
    """Single-thread baseline latency (us) for Figure 5 (fine locking,
    no jitter — one flow cannot collide with itself)."""
    bed = build_testbed(policy="fine", seed=cfg.seed)
    res = run_pingpong(bed, size, iterations=cfg.iterations, warmup=cfg.warmup)
    return res.latency_us


def fig5_concurrent_point(
    policy: str, nflows: int, size: int, cfg: BenchConfig
) -> float:
    """Mean per-flow latency (us) of ``nflows`` concurrent pingpongs."""
    bed = build_testbed(policy=policy, seed=cfg.seed, jitter_ns=FIG5_JITTER_NS)
    flows = run_concurrent_pingpong(
        bed, size, nflows=nflows, iterations=cfg.iterations, warmup=cfg.warmup
    )
    return sum(f.latency_us for f in flows) / len(flows)


def _fig5_extra(name: str, size: int) -> dict:
    """Recover the ``nflows`` annotation from a series label like
    ``"coarse (4 threads)"``; the baseline gets no extra."""
    if "(" not in name:
        return {}
    return {"nflows": int(name.split("(", 1)[1].split()[0])}


def run_fig5(
    cfg: BenchConfig | None = None, *, flow_counts: tuple[int, ...] = (2, FIG5_SATURATION_FLOWS)
) -> ResultSet:
    """Figure 5: threads perform pingpongs concurrently.

    Series: the single-thread baseline (``1 thread``) plus the mean
    per-flow latency under coarse and fine locking for each flow count.
    """
    cfg = cfg or BenchConfig()
    configs = {"1 thread": partial(fig5_single_point, cfg=cfg)}
    for policy in ("coarse", "fine"):
        for nflows in flow_counts:
            configs[f"{policy} ({nflows} threads)"] = partial(
                fig5_concurrent_point, policy, nflows, cfg=cfg
            )
    return run_sweep("fig5", configs, cfg, extra=_fig5_extra)


def fig5_ratios(results: ResultSet) -> dict[str, list[tuple[int, float]]]:
    """Per-size latency ratios of each concurrent series over the
    single-thread baseline — the paper's 'roughly twice' claim."""
    base = results.series("1 thread")
    out = {}
    for config in results.configs():
        if config == "1 thread":
            continue
        out[config] = ratio_series(base, results.series(config))
    return out
