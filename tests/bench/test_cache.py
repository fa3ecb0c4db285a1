"""Tests for the incremental sweep cache (repro.bench.cache).

The headline guarantee mirrors the parallel runner's: caching is a pure
wall-clock optimisation.  A warm sweep serializes byte-identically
(JSON *and* CSV) to its cold run, invalidates on any source edit, seed
change or config change, refuses to serve corrupted entries, and replays
observation blobs such that a warm trace equals the cold one.
"""

import pickle
from functools import partial

import pytest

from repro.bench import cache as bench_cache
from repro.bench.cache import PointCache, point_key
from repro.bench.config import BenchConfig
from repro.bench.figures import run_latency
from repro.bench.runner import run_sweep, sweep_session
from repro.util.records import ResultSet
from repro.workloads.matrix import run_scenario

QUICK = BenchConfig(iterations=6, warmup=2, sizes=(1, 256), jitter_ns=150)


def _linear_point(slope: float, size: int) -> float:
    """Module-level (hence fingerprintable) fake measurement."""
    return slope * size + 1.0


_COUNTER = []


def _counting_point(size: int) -> float:
    """Fake measurement that records every real invocation."""
    _COUNTER.append(size)
    return float(size)


@pytest.fixture
def warm_cache(monkeypatch):
    """Opt back into caching (the suite-wide conftest disables it); the
    store still lands in the per-test temporary directory."""
    monkeypatch.setenv(bench_cache.CACHE_ENV, "1")
    _COUNTER.clear()
    yield
    _COUNTER.clear()


class TestEnabled:
    def test_env_default_on(self, monkeypatch):
        monkeypatch.delenv(bench_cache.CACHE_ENV, raising=False)
        assert bench_cache.enabled()

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "OFF"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv(bench_cache.CACHE_ENV, value)
        assert not bench_cache.enabled()

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(bench_cache.CACHE_ENV, "0")
        assert bench_cache.enabled(True)
        monkeypatch.setenv(bench_cache.CACHE_ENV, "1")
        assert not bench_cache.enabled(False)


class TestPointKey:
    def _key(self, **kw):
        args = dict(
            fn=partial(_linear_point, 2.0),
            experiment="exp",
            config="a",
            size=8,
            cfg=QUICK,
            obs_spec=None,
        )
        args.update(kw)
        return point_key(**args)

    def test_stable_across_calls(self):
        assert self._key() == self._key()

    def test_size_splits_keys(self):
        assert self._key(size=8) != self._key(size=16)

    def test_partial_args_split_keys(self):
        assert self._key() != self._key(fn=partial(_linear_point, 3.0))

    def test_seed_splits_keys(self):
        import dataclasses

        other = dataclasses.replace(QUICK, seed=7)
        assert self._key() != self._key(cfg=other)

    def test_config_change_splits_keys(self):
        import dataclasses

        other = dataclasses.replace(QUICK, iterations=12)
        assert self._key() != self._key(cfg=other)

    def test_sizes_do_not_split_keys(self):
        """The sibling size list must hit the same entries."""
        import dataclasses

        variant = dataclasses.replace(QUICK, sizes=(1, 2, 4))
        assert self._key() == self._key(cfg=variant)

    def test_embedded_benchconfig_normalized(self):
        """A BenchConfig bound inside the partial (the figure idiom) is
        normalized the same way as the sweep config."""
        fn_seq = partial(_linear_point, 2.0, cfg=QUICK)
        fn_par = partial(_linear_point, 2.0, cfg=QUICK.with_sizes([1, 2, 4]))
        assert self._key(fn=fn_seq) == self._key(fn=fn_par)

    def test_runtime_version_splits_keys(self, monkeypatch):
        """Python or numpy upgrades must not replay stale points: numpy
        does not promise its Generator streams across versions."""
        before = self._key()
        python, numpy_version = bench_cache.runtime_versions()
        monkeypatch.setattr(
            bench_cache, "runtime_versions", lambda: (python, "0.0.0")
        )
        assert self._key() != before
        monkeypatch.setattr(
            bench_cache, "runtime_versions", lambda: ("2.7", numpy_version)
        )
        assert self._key() != before

    def test_obs_spec_splits_keys(self):
        assert self._key() != self._key(obs_spec=("obs", True, 1000))

    def test_source_edit_invalidates(self, monkeypatch):
        before = self._key()
        monkeypatch.setattr(
            bench_cache, "package_digest", lambda: "0" * 64
        )
        assert self._key() != before

    def test_unfingerprintable_returns_none(self):
        assert self._key(fn=lambda s: 1.0) is None

        def closure(size):
            return 1.0

        assert self._key(fn=closure) is None

    def test_package_digest_covers_every_module(self):
        digests = bench_cache.module_digests()
        assert "bench/cache.py" in digests
        assert "sim/engine.py" in digests
        assert all(len(d) == 64 for d in digests.values())


class TestStoreRoundTrip:
    def test_put_get(self, tmp_path):
        store = PointCache(tmp_path / "c")
        store.put("ab" * 32, latency_us=3.5)
        entry = store.get("ab" * 32)
        assert entry["latency_us"] == 3.5
        assert entry["capture"] is None

    def test_absent_is_miss(self, tmp_path):
        bench_cache.reset_stats()
        store = PointCache(tmp_path / "c")
        assert store.get("cd" * 32) is None
        assert bench_cache.stats().misses == 1

    def test_need_capture_refuses_blind_entry(self, tmp_path):
        """An entry recorded without observation must not satisfy an
        observed run — the trace would silently vanish."""
        store = PointCache(tmp_path / "c")
        store.put("ef" * 32, latency_us=1.0, capture=None)
        assert store.get("ef" * 32, need_capture=True) is None
        assert store.get("ef" * 32) is not None

    def test_corrupted_entry_discarded_loudly(self, tmp_path):
        bench_cache.reset_stats()
        store = PointCache(tmp_path / "c")
        key = "12" * 32
        store.put(key, latency_us=1.0)
        path = store._entry_path(key)
        path.write_bytes(b"\x80garbage not a pickle")
        with pytest.warns(RuntimeWarning, match="corrupted sweep-cache"):
            assert store.get(key) is None
        assert bench_cache.stats().invalidations == 1
        assert not path.exists(), "corrupted entry must be deleted"

    def test_wrong_format_discarded_loudly(self, tmp_path):
        store = PointCache(tmp_path / "c")
        key = "34" * 32
        store.put(key, latency_us=1.0)
        path = store._entry_path(key)
        path.write_bytes(pickle.dumps({"format": 999, "latency_us": 1.0}))
        with pytest.warns(RuntimeWarning, match="corrupted"):
            assert store.get(key) is None

    def test_maintenance(self, tmp_path):
        store = PointCache(tmp_path / "c")
        store.put("56" * 32, latency_us=1.0)
        assert store.entry_count() == 1
        assert store.disk_bytes() > 0
        assert store.clear() == 1
        assert store.entry_count() == 0

    def test_cli_stats_and_clear(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(bench_cache.CACHE_DIR_ENV, str(tmp_path / "c"))
        store = PointCache()
        store.put("78" * 32, latency_us=1.0)
        assert bench_cache.main(["stats"]) == 0
        assert "entries:    1" in capsys.readouterr().out
        assert bench_cache.main(["clear"]) == 0
        assert store.entry_count() == 0


class TestRunSweepCaching:
    def test_warm_run_skips_measurement(self, warm_cache):
        configs = {"a": partial(_counting_point)}
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2, 4))
        cold = run_sweep("exp", configs, cfg)
        assert _COUNTER == [1, 2, 4]
        warm = run_sweep("exp", configs, cfg)
        assert _COUNTER == [1, 2, 4], "warm run must not re-measure"
        assert cold.to_json() == warm.to_json()

    def test_cache_off_measures_every_time(self, warm_cache):
        configs = {"a": partial(_counting_point)}
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        with sweep_session(cache=False):
            run_sweep("exp", configs, cfg)
            run_sweep("exp", configs, cfg)
        assert _COUNTER == [1, 2, 1, 2]

    def test_unfingerprintable_points_always_measured(self, warm_cache):
        calls = []

        def closure_point(size):
            calls.append(size)
            return float(size)

        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        run_sweep("exp", {"a": closure_point}, cfg)
        run_sweep("exp", {"a": closure_point}, cfg)
        assert calls == [1, 2, 1, 2]

    def test_seed_change_misses(self, warm_cache):
        import dataclasses

        configs = {"a": partial(_counting_point)}
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1,))
        run_sweep("exp", configs, cfg)
        run_sweep("exp", configs, dataclasses.replace(cfg, seed=9))
        assert _COUNTER == [1, 1]

    def test_source_edit_invalidates_warm_run(self, warm_cache, monkeypatch):
        configs = {"a": partial(_counting_point)}
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2))
        run_sweep("exp", configs, cfg)
        monkeypatch.setattr(
            bench_cache, "package_digest", lambda: "f" * 64
        )
        run_sweep("exp", configs, cfg)
        assert _COUNTER == [1, 2, 1, 2], "source edit must invalidate"

    def test_corrupted_entry_recomputed(self, warm_cache):
        configs = {"a": partial(_counting_point)}
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1,))
        run_sweep("exp", configs, cfg)
        store = PointCache()
        objects = store.root / "objects"
        entries = list(objects.rglob("*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(b"junk")
        with pytest.warns(RuntimeWarning, match="corrupted"):
            warm = run_sweep("exp", configs, cfg)
        assert _COUNTER == [1, 1], "corrupted entry must be recomputed"
        assert warm.point("a", 1) == 1.0

    def test_parallel_cold_then_sequential_warm(self, warm_cache):
        configs = {
            "flat": partial(_linear_point, 0.0),
            "steep": partial(_linear_point, 3.0),
        }
        cfg = BenchConfig(iterations=2, warmup=1, sizes=(1, 2, 4, 8))
        with sweep_session(workers=2):
            cold = run_sweep("exp", configs, cfg)
        before = bench_cache.stats()
        warm = run_sweep("exp", configs, cfg)
        delta = bench_cache.stats().delta(before)
        assert cold.to_json() == warm.to_json()
        assert delta.hits == 8 and delta.misses == 0


class TestFigureAndWorkloadWarmRuns:
    """Satellite: warm-vs-cold byte-identical JSON/CSV for a real figure
    sweep and a real workload scenario."""

    def test_fig3_warm_byte_identical(self, warm_cache):
        cold = run_latency("fig3", QUICK)
        before = bench_cache.stats()
        warm = run_latency("fig3", QUICK)
        delta = bench_cache.stats().delta(before)
        assert delta.misses == 0 and delta.hits == len(cold)
        assert cold.to_json() == warm.to_json()
        assert cold.to_csv() == warm.to_csv()
        assert cold.digest() == warm.digest()

    def test_stencil_warm_byte_identical(self, warm_cache):
        cold = run_scenario("stencil", quick=True)
        before = bench_cache.stats()
        warm = run_scenario("stencil", quick=True)
        delta = bench_cache.stats().delta(before)
        assert delta.misses == 0 and delta.hits == len(cold)
        assert cold.to_json() == warm.to_json()
        assert cold.to_csv() == warm.to_csv()

    def test_stencil_seed_change_recomputes(self, warm_cache):
        run_scenario("stencil", quick=True, seed=0)
        before = bench_cache.stats()
        run_scenario("stencil", quick=True, seed=1)
        assert bench_cache.stats().delta(before).hits == 0

    def test_fig3_warm_across_worker_counts(self, warm_cache):
        cold = run_latency("fig3", QUICK)
        for workers in (2, 4):
            with sweep_session(workers=workers):
                warm = run_latency("fig3", QUICK)
            assert warm.to_json() == cold.to_json()


class TestObservationRoundTrip:
    """Capture blobs must round-trip through the cache: a warm observed
    run replays the very blobs its cold run serialized."""

    def test_warm_trace_equals_cold_trace(self, warm_cache):
        from repro.obs import capture as obs_capture

        with obs_capture.observe(trace=True) as cold_obs:
            cold = run_latency("fig3", QUICK)
        with obs_capture.observe(trace=True) as warm_obs:
            warm = run_latency("fig3", QUICK)
        assert cold.to_json() == warm.to_json()
        assert cold_obs.serialize() == warm_obs.serialize()
        assert warm_obs.event_count() == cold_obs.event_count() > 0

    def test_blind_entries_do_not_serve_observed_runs(self, warm_cache):
        from repro.obs import capture as obs_capture

        run_latency("fig3", QUICK)  # cold, unobserved
        before = bench_cache.stats()
        with obs_capture.observe(trace=True) as obs:
            run_latency("fig3", QUICK)
        delta = bench_cache.stats().delta(before)
        assert delta.hits == 0, "unobserved entries must not serve traces"
        assert obs.event_count() > 0

    def test_malformed_blob_rejected_by_absorb(self):
        from repro.obs.capture import Observation

        obs = Observation()
        with pytest.raises(ValueError, match="malformed"):
            obs.absorb({"captures": [{"no-machines": True}]})
        with pytest.raises(ValueError, match="malformed"):
            obs.absorb("not a dict")


class TestResultSetDigest:
    def test_digest_matches_manual_sha(self):
        import hashlib

        rs = ResultSet()
        assert (
            rs.digest()
            == hashlib.sha256(rs.to_json().encode("utf-8")).hexdigest()
        )
