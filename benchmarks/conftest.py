"""Shared helpers for the figure-regeneration benchmarks.

``bench_figures.py`` regenerates each of the paper's figures (and
in-text results) under pytest-benchmark, prints the same series the paper
plots with the sweep's provenance footnote, records the measured values
in ``extra_info``, and asserts the shape claims from
:mod:`repro.bench.paper`.

Set ``REPRO_BENCH_QUICK=1`` to run reduced sweeps and
``REPRO_BENCH_WORKERS=N`` to fan each figure's sweep out to N worker
processes (same results, less wall-clock).
"""

import os

import pytest

from repro.bench import figures
from repro.bench.report import print_figure
from repro.bench.runner import sweep_session

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def regenerate(benchmark, name: str):
    """Run one figure once under the benchmark timer; print and check it."""
    with sweep_session() as session:
        results, checks = benchmark.pedantic(
            lambda: figures.FIGURES[name](QUICK), rounds=1, iterations=1
        )
    print()
    print_figure(
        results, title=figures.TITLES[name], checks=checks, note=session.note()
    )
    for claim, measured in checks:
        benchmark.extra_info[claim.claim_id] = round(measured, 3)
    failed = [c.claim_id for c, m in checks if not c.check(m)]
    assert not failed, f"paper claims off: {failed}"
    return results


@pytest.fixture
def figure_runner(benchmark):
    def run(name: str):
        return regenerate(benchmark, name)

    return run
