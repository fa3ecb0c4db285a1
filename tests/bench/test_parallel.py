"""Tests for the parallel sweep runner (repro.bench.parallel).

The headline guarantee: a ``workers=2`` sweep returns a ResultSet with
the same records, in the same order, with the same JSON serialization as
the sequential sweep — parallelism is pure wall-clock optimisation.
"""

import math
import time
import warnings
from functools import partial

import pytest

from repro.bench import parallel
from repro.bench.figures import run_latency
from repro.bench.config import BenchConfig
from repro.bench.parallel import (
    WORKERS_ENV,
    get_pool,
    imap_points,
    resolve_workers,
    shutdown_pool,
)
from repro.bench.runner import run_sweep, sweep_session
from repro.util.records import ResultRecord, ResultSet

#: reduced sweep: enough sizes to exercise the grid, small enough for CI
QUICK = BenchConfig(iterations=8, warmup=2, sizes=(1, 64, 1024), jitter_ns=150)


def _linear_point(slope: float, size: int) -> float:
    """Module-level (hence picklable) fake measurement."""
    return slope * size + 1.0


class TestWorkerResolution:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_session_validates_workers(self):
        with pytest.raises(ValueError):
            with sweep_session(workers=0):
                pass
        with sweep_session(workers=2) as session:
            assert session.workers == 2
        with sweep_session(workers=4) as session:
            assert session.workers == 4


class TestPicklability:
    """Pool tasks carry only the point function and its size: the point
    functions must pickle, ``extra`` never leaves this process."""

    def test_partials_over_module_functions_are_picklable(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        before = parallel.pool_stats()
        with sweep_session(workers=2):
            results = run_sweep("pickl", {"a": partial(_linear_point, 2.0)}, cfg)
        assert parallel.pool_stats_delta(before)["dispatched"] == 2
        assert results.point("a", 2) == 5.0

    def test_lambdas_are_not(self):
        """A lambda point on the pool fails the sweep, naming it — it is
        never quietly measured somewhere else."""
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        with sweep_session(workers=2), pytest.raises(
            RuntimeError, match="sweep 'my-sweep': point 'a' at size 1"
        ):
            run_sweep("my-sweep", {"a": lambda s: 1.0}, cfg)

    def test_lambda_extra_keeps_points_on_the_pool(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2, 4))
        configs = {
            "a": partial(_linear_point, 1.0),
            "b": partial(_linear_point, 2.0),
        }
        before = parallel.pool_stats()
        with sweep_session(workers=2):
            results = run_sweep(
                "exp", configs, cfg, extra=lambda name, size: {"tag": name}
            )
        assert parallel.pool_stats_delta(before)["dispatched"] == 6
        assert [r.extra for r in results] == [{"tag": "a"}] * 3 + [{"tag": "b"}] * 3


def _sleep_ms_point(size: int) -> float:
    """Module-level point whose cost is its size in milliseconds — the
    synthetic skewed grid of the chunking regression test."""
    time.sleep(size / 1000.0)
    return float(size)


class TestPersistentPool:
    def test_pool_is_reused_across_calls(self):
        shutdown_pool()
        before = parallel.pool_stats()
        pool_a = get_pool(2)
        pool_b = get_pool(2)
        delta = parallel.pool_stats_delta(before)
        assert pool_a is pool_b
        assert delta["created"] == 1 and delta["reused"] == 1

    def test_worker_count_change_recreates(self):
        shutdown_pool()
        pool_a = get_pool(2)
        pool_b = get_pool(3)
        assert pool_a is not pool_b
        shutdown_pool()

    def test_shutdown_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()

    def test_imap_points_keeps_task_order(self):
        tasks = [(partial(_linear_point, 2.0), size, None) for size in (1, 2, 4, 8)]
        outcomes = list(imap_points(tasks, 2))
        assert outcomes == [(3.0, None), (5.0, None), (9.0, None), (17.0, None)]

    def test_sweeps_share_one_pool(self):
        """Two consecutive parallel sweeps must reuse the same pool —
        the suite-level spawn amortisation the pipeline relies on."""
        shutdown_pool()
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2, 4))
        configs = {"a": partial(_linear_point, 1.0)}
        before = parallel.pool_stats()
        with sweep_session(workers=2):
            run_sweep("exp-one", configs, cfg)
            run_sweep("exp-two", configs, cfg)
        delta = parallel.pool_stats_delta(before)
        assert delta["created"] <= 1
        assert delta["dispatched"] == 6

    def test_skewed_grid_near_ideal_makespan(self):
        """Regression for the static-chunksize bug: a skewed grid (one
        long point + a tail of short ones) on 4 workers must finish
        within ~1.2x of the ideal makespan, i.e. the long point must not
        serialize short points behind it in a shared chunk."""
        shutdown_pool()
        weights = [200] + [15] * 15
        tasks = [(_sleep_ms_point, w, None) for w in weights]
        get_pool(4)  # spawn outside the timed region
        t0 = time.perf_counter()
        outcomes = list(imap_points(tasks, 4))
        elapsed = time.perf_counter() - t0
        assert outcomes == [(float(w), None) for w in weights]
        ideal = max(max(weights), sum(weights) / 4) / 1000.0
        # 1.2x ideal plus a flat IPC/startup allowance for slow CI boxes
        assert elapsed < 1.2 * ideal + 0.25, (
            f"skewed grid took {elapsed:.3f}s vs ideal {ideal:.3f}s"
        )
        shutdown_pool()


class TestSequentialFallbackWarning:
    """Neither execution path warns."""

    def test_sequential_run_does_not_warn(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep("quiet", {"a": lambda s: 1.0}, cfg)

    def test_picklable_parallel_does_not_warn(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        with sweep_session(workers=2), warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep("pickl", {"a": partial(_linear_point, 1.0)}, cfg)


class TestRunSweepParallel:
    def test_parallel_matches_sequential_synthetic(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2, 4, 8))
        configs = {
            "flat": partial(_linear_point, 0.0),
            "steep": partial(_linear_point, 3.0),
        }
        seq = run_sweep("exp", configs, cfg)
        with sweep_session(workers=2):
            par = run_sweep("exp", configs, cfg)
        assert seq.to_json() == par.to_json()

    def test_workers_from_session(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        with sweep_session(workers=2):
            results = run_sweep("exp", {"a": partial(_linear_point, 1.0)}, cfg)
        assert results.point("a", 2) == 3.0

    def test_workers_from_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        results = run_sweep("exp", {"a": partial(_linear_point, 1.0)}, cfg)
        assert len(results) == 2

    def test_nan_latency_rejected_with_location(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(8,))
        with pytest.raises(ValueError, match=r"'bad'.*size 8"):
            run_sweep("exp", {"bad": lambda s: math.nan}, cfg)

    def test_inf_latency_rejected(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(8,))
        with pytest.raises(ValueError, match="non-finite"):
            run_sweep("exp", {"bad": lambda s: math.inf}, cfg)

    def test_nan_rejected_on_parallel_path(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(8, 16))
        with sweep_session(workers=2), pytest.raises(ValueError, match="non-finite"):
            run_sweep("exp", {"bad": partial(_linear_point, math.nan)}, cfg)


class TestFigureDeterminism:
    """E-series sweeps: parallel must serialize byte-identically."""

    def test_fig3_parallel_identical(self):
        seq = run_latency("fig3", QUICK)
        with sweep_session(workers=2):
            par = run_latency("fig3", QUICK)
        assert seq.to_json() == par.to_json()

    def test_fig7_parallel_identical(self):
        seq = run_latency("fig7", QUICK)
        with sweep_session(workers=2):
            par = run_latency("fig7", QUICK)
        assert seq.to_json() == par.to_json()


class TestResultSetMerge:
    def test_extend(self):
        rs = ResultSet()
        rs.extend([ResultRecord("e", "a", 1, 1.0)])
        assert len(rs) == 1
