"""Scenario sweeps and the mechanism matrix report.

:func:`run_scenario` measures one scenario over the whole mechanism grid
(every locking policy × waiting strategy × progression combination the
grid defines, times the scenario's variants) and returns a
:class:`~repro.util.records.ResultSet` whose ``config`` axis is the
mechanism label and whose ``size`` axis is the scenario's sweep axis.
Sweep points are independent (each builds a fresh testbed), so the grid
fans out across worker processes through :mod:`repro.bench.parallel`
with deterministically identical results; the worker count and cache
switch come from the enclosing
:func:`~repro.bench.runner.sweep_session`.

:func:`mechanism_matrix` renders the cross-scenario report: one
figure-style table per scenario plus a per-scenario mechanism ranking
and an overall win count — the workload counterpart of
``python -m repro.bench.figures``.
"""

from __future__ import annotations

from functools import partial

from repro.bench.config import BenchConfig
from repro.bench.report import figure_table
from repro.bench.runner import run_sweep, sweep_session
from repro.util.records import ResultSet
from repro.workloads.base import Mechanism, mechanism_grid
from repro.workloads.registry import Scenario, get


def config_label(mech: Mechanism, variant: str) -> str:
    """The ResultSet config label of one (mechanism, variant) series."""
    return f"{mech.key} [{variant}]" if variant else mech.key


def run_scenario(
    name: str,
    *,
    quick: bool = False,
    seed: int = 0,
    workers: int | None = None,
    grid: str = "standard",
) -> ResultSet:
    """Measure ``name`` across the mechanism grid; deterministic for a
    given seed (two runs serialize to byte-identical JSON, any worker
    count included — and whether points were computed or replayed from
    the incremental cache).  ``workers=None`` inherits the enclosing
    session's count."""
    sc = get(name)
    mechs = mechanism_grid(grid)
    configs = {
        config_label(mech, variant): partial(sc.point, mech.key, variant, seed)
        for mech in mechs
        for variant in sc.variants
    }
    cfg = BenchConfig(
        iterations=1,
        warmup=0,
        sizes=sc.sweep_sizes(quick),
        seed=seed,
    )
    with sweep_session(workers=workers):
        return run_sweep(
            f"workload-{name}",
            configs,
            cfg,
            extra=lambda _config, _size: {"axis": sc.axis},
        )


def rank_mechanisms(results: ResultSet) -> list[tuple[str, float]]:
    """Mechanism labels with their mean makespan (us) across the sweep
    axis, fastest first.  Ties break on the label for stable output."""
    means = []
    for config in results.configs():
        series = results.series(config)
        means.append((sum(v for _, v in series) / len(series), config))
    return [(config, mean) for mean, config in sorted(means)]


def ranking_block(results: ResultSet) -> str:
    """The per-scenario ranking rendered as report lines."""
    lines = ["mechanism ranking (mean makespan, us):"]
    ranked = rank_mechanisms(results)
    best = ranked[0][1]
    for i, (config, mean) in enumerate(ranked, start=1):
        slowdown = mean / best if best else float("inf")
        lines.append(f"  {i:2d}. {config:32s} {mean:12.1f}  ({slowdown:.2f}x)")
    return "\n".join(lines)


def scenario_report(sc: Scenario, results: ResultSet) -> str:
    """One scenario's section of the matrix report."""
    title = f"Workload: {sc.name} — {sc.title} (axis: {sc.axis})"
    return "\n".join([figure_table(results, title=title), "", ranking_block(results)])


def mechanism_matrix(results_by_scenario: dict[str, ResultSet]) -> str:
    """The full cross-scenario report text.

    Ends with the win table: how often each mechanism ranked first.
    Incomplete sweeps render loudly (``figure_table`` flags every hole).
    """
    parts = []
    wins: dict[str, int] = {}
    for name, results in results_by_scenario.items():
        sc = get(name)
        parts.append(scenario_report(sc, results))
        winner = rank_mechanisms(results)[0][0]
        # variants of one mechanism count for the mechanism itself
        mech = winner.split(" [", 1)[0]
        wins[mech] = wins.get(mech, 0) + 1
    if len(results_by_scenario) > 1:
        lines = ["mechanism wins across scenarios:"]
        for mech, count in sorted(wins.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {mech:32s} {count}")
        parts.append("\n".join(lines))
    return "\n\n".join(parts)


def missing_point_count(results_by_scenario: dict[str, ResultSet]) -> int:
    """Grid holes across every scenario (0 = every mechanism × size
    measured)."""
    return sum(
        len(results.missing_points())
        for results in results_by_scenario.values()
    )
