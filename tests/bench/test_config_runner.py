"""Unit tests for the bench configuration and sweep runner."""

import pytest

from repro.bench import cache as bench_cache
from repro.bench.config import OVERLAP_SIZES, PAPER_SIZES, BenchConfig
from repro.bench.parallel import WORKERS_ENV
from repro.bench.runner import run_sweep, sweep_session
from repro.obs import capture as obs_capture


class TestBenchConfig:
    def test_paper_sizes_match_figure_axes(self):
        assert PAPER_SIZES[0] == 1
        assert PAPER_SIZES[-1] == 2048
        assert len(PAPER_SIZES) == 12  # 1,2,4,...,2K

    def test_overlap_sizes(self):
        assert OVERLAP_SIZES == (2048, 4096, 8192, 16384, 32768)

    def test_defaults_valid(self):
        cfg = BenchConfig()
        assert cfg.warmup < cfg.iterations

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(iterations=0)
        with pytest.raises(ValueError):
            BenchConfig(iterations=4, warmup=4)
        with pytest.raises(ValueError):
            BenchConfig(sizes=())

    def test_quick(self):
        cfg = BenchConfig.quick()
        assert cfg.iterations == 6

    def test_with_sizes_parses_specs(self):
        cfg = BenchConfig().with_sizes(["1K", 64, "2K"])
        assert cfg.sizes == (1024, 64, 2048)


class TestRunSweep:
    def test_grid_is_complete(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2, 4))
        calls = []

        def fake(size):
            calls.append(size)
            return float(size)

        results = run_sweep("exp", {"a": fake, "b": fake}, cfg)
        assert len(results) == 6
        assert results.point("a", 2) == 2.0
        assert calls == [1, 2, 4, 1, 2, 4]

    def test_extra_callback(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(8,))
        results = run_sweep(
            "exp",
            {"a": lambda s: 1.0},
            cfg,
            extra=lambda name, size: {"config": name, "sz": size},
        )
        assert results[0].extra == {"config": "a", "sz": 8}

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("exp", {}, BenchConfig.quick())

    def test_negative_latency_rejected(self):
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1,))
        with pytest.raises(ValueError):
            run_sweep("exp", {"bad": lambda s: -1.0}, cfg)


class TestSweepSession:
    def test_defaults_from_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        monkeypatch.setenv(bench_cache.CACHE_ENV, "0")
        with sweep_session() as session:
            assert (session.workers, session.cache) == (3, False)
        monkeypatch.delenv(WORKERS_ENV)
        monkeypatch.setenv(bench_cache.CACHE_ENV, "1")
        with sweep_session() as session:
            assert (session.workers, session.cache) == (1, True)

    def test_nested_session_inherits_unset_settings(self):
        with sweep_session(workers=3, cache=False):
            with sweep_session() as inner:
                assert (inner.workers, inner.cache) == (3, False)
            with sweep_session(workers=2, cache=True) as inner:
                assert (inner.workers, inner.cache) == (2, True)

    def test_observation_only_when_asked(self, tmp_path):
        with sweep_session() as session:
            assert session.observation is None
            assert obs_capture.active() is None
        assert session.report() == ""
        with sweep_session(metrics=True) as session:
            assert obs_capture.active() is session.observation
            assert not session.observation.trace
        assert obs_capture.active() is None
        trace = str(tmp_path / "t.json")
        with sweep_session(trace=trace) as session:
            run_sweep("exp", {"a": lambda s: 1.0}, BenchConfig(sizes=(8,)))
        assert session.observation.trace
        assert session.report().startswith("trace: ")
        assert (tmp_path / "t.json").exists()
