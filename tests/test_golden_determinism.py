"""Golden determinism snapshots: same seed → byte-identical JSON.

Every hot-path optimisation (engine queue layout, effect-object reuse,
PIOMan reap batching, driver fast paths) must change *host* CPU cost only —
never simulated behaviour.  These tests pin that contract with SHA-256
hashes of fully-rendered result JSON: one figure sweep and one
application-level workload scenario, each checked across worker counts
(the parallel sweep runner must not influence results either).

If an intentional modelling change shifts the outputs, regenerate the
hashes with::

    PYTHONPATH=src python -c "
    import hashlib
    from repro.bench.figures import FIGURES
    from repro.workloads.matrix import run_scenario
    rs, _ = FIGURES['fig3'](True)
    print('fig3   ', hashlib.sha256(rs.to_json().encode()).hexdigest())
    rs = run_scenario('stencil', quick=True)
    print('stencil', hashlib.sha256(rs.to_json().encode()).hexdigest())"

and say so in the commit message — a silent hash change is a determinism
bug by definition.
"""

import hashlib

import pytest

from repro.bench.figures import FIGURES
from repro.bench.runner import sweep_session
from repro.workloads.matrix import run_scenario

#: SHA-256 of ResultSet.to_json() for the fig3 locking sweep, --quick
FIG3_QUICK_SHA256 = "982855684400e57ba61667d8ee1ba42dd19d628b01fd46039a97c0f78aa5a6b1"
#: SHA-256 of ResultSet.to_json() for the stencil scenario, --quick
STENCIL_QUICK_SHA256 = (
    "d7125235c6f0f9a25232269d4c03e35c1882e997d3e068d7f1ba9546b21c975a"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestFigureGolden:
    def test_fig3_quick_matches_snapshot(self):
        result_set, _checks = FIGURES["fig3"](True)
        assert _sha256(result_set.to_json()) == FIG3_QUICK_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig3_quick_workers_invariant(self, workers):
        with sweep_session(workers=workers):
            result_set, _checks = FIGURES["fig3"](True)
        assert _sha256(result_set.to_json()) == FIG3_QUICK_SHA256


class TestIncrementalCacheGolden:
    """Acceptance: the golden hashes hold cold, warm, and at any worker
    count *with the incremental point cache enabled* — replayed points
    are byte-identical to computed ones."""

    def test_fig3_quick_cold_warm_and_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        cold, _checks = FIGURES["fig3"](True)
        assert cold.digest() == FIG3_QUICK_SHA256
        for workers in (1, 4, 8):
            with sweep_session(workers=workers):
                warm, _checks = FIGURES["fig3"](True)
            assert warm.digest() == FIG3_QUICK_SHA256, f"workers={workers}"

    def test_stencil_quick_cold_warm_and_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        cold = run_scenario("stencil", quick=True)
        assert cold.digest() == STENCIL_QUICK_SHA256
        for workers in (1, 4, 8):
            warm = run_scenario("stencil", quick=True, workers=workers)
            assert warm.digest() == STENCIL_QUICK_SHA256, f"workers={workers}"


class TestWorkloadGolden:
    def test_stencil_quick_matches_snapshot(self):
        result_set = run_scenario("stencil", quick=True)
        assert _sha256(result_set.to_json()) == STENCIL_QUICK_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stencil_quick_workers_invariant(self, workers):
        result_set = run_scenario("stencil", quick=True, workers=workers)
        assert _sha256(result_set.to_json()) == STENCIL_QUICK_SHA256
