"""Suite-wide isolation for the incremental sweep cache.

The point cache defaults to *on* for real suite runs (CLI, benchmarks),
but tests must stay hermetic: a sweep measured in one test must never be
replayed into another, and the parallel/determinism tests must exercise
the real execution paths rather than cache hits.  Tests that cover the
cache itself opt back in with ``monkeypatch.setenv(CACHE_ENV, "1")`` —
the store still lands in the per-test temporary directory.
"""

import pytest

from repro.bench import cache as bench_cache


@pytest.fixture(autouse=True)
def _hermetic_sweep_cache(monkeypatch, tmp_path):
    monkeypatch.setenv(bench_cache.CACHE_ENV, "0")
    monkeypatch.setenv(
        bench_cache.CACHE_DIR_ENV, str(tmp_path / "sweep-cache")
    )
    bench_cache.reset_stats()
    yield
