"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ladder  # noqa: E402
from measure import (  # noqa: E402
    Ledger,
    abba_order,
    amdahl_ceiling,
    ladder_subtract,
    overhead_pct,
    run_abba,
    spread,
)
from run import REFERENCES, References  # noqa: E402
from spans import Recorder, patched, self_time_by_name, self_times  # noqa: E402


class TestLadderSubtraction:
    def test_subtracts_what_lower_rungs_predict(self):
        # 1000 ns total: 40 events at 10 ns and 2 handoffs at 100 ns leave
        # 400 ns for 4 messages
        cost = ladder_subtract(
            1_000, {"events": 40, "handoffs": 2}, {"events": 10, "handoffs": 100}, 4
        )
        assert cost == 100

    def test_unknown_unit_is_rejected(self):
        with pytest.raises(KeyError):
            ladder_subtract(1_000, {"packets": 3}, {"events": 10}, 1)

    def test_rung_needs_units_of_its_own(self):
        with pytest.raises(ValueError):
            ladder_subtract(1_000, {}, {}, 0)

    def test_shares_of_a_workload_add_up_to_one(self):
        samples = {
            "sim.engine": {"host_ns": 1_000, "events": 100},
            "sim.scheduler": {"host_ns": 3_000, "events": 100},
            "sim.sync": {"host_ns": 5_000, "events": 100, "lock_acquires": 10, "blocks": 10},
            "net": {"host_ns": 6_000, "events": 100, "packets": 10},
            **{f"core.{p}": {"host_ns": 20_000 + i, "events": 200, "lock_acquires": 20,
                             "packets": 20, "msgs": 20, "latency_ns": 0}
               for i, p in enumerate(ladder.POLICIES)},
            "pioman": {"host_ns": 30_000, "events": 250, "lock_acquires": 20,
                       "packets": 20, "msgs": 20, "blocks": 0, "latency_ns": 0},
            "workloads": {"host_ns": 90_000, "events": 600, "lock_acquires": 50,
                          "packets": 30, "msgs": 30, "blocks": 40},
        }
        costs = ladder.unit_costs(samples)
        assert costs["sim.engine"] == 10
        assert costs["sim.scheduler"] == 20
        for by_layer in ladder.shares(samples, costs).values():
            assert sum(by_layer.values()) == pytest.approx(1.0)


class TestAmdahl:
    @pytest.mark.parametrize("share, ceiling", [(0.0, 1.0), (0.5, 2.0), (0.75, 4.0)])
    def test_ceiling(self, share, ceiling):
        assert amdahl_ceiling(share) == ceiling

    def test_whole_share_has_no_ceiling(self):
        with pytest.raises(ValueError):
            amdahl_ceiling(1.0)


class TestAbba:
    def test_order_is_balanced(self):
        assert abba_order(2) == ["A", "B", "B", "A", "A", "B", "B", "A"]

    def test_run_abba_calls_in_order(self):
        calls = []
        a, b = run_abba(lambda: calls.append("A") or 1.0,
                        lambda: calls.append("B") or 2.0, 2)
        assert calls == abba_order(2)
        assert a == [1.0] * 4 and b == [2.0] * 4
        assert overhead_pct(a, b) == 100.0

    def test_overhead_is_the_median_block_ratio(self):
        # blocks: (1+1 vs 1.1+1.1), (2+2 vs 2+2), (1+1 vs 3+3)
        a = [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]
        b = [1.1, 1.1, 2.0, 2.0, 3.0, 3.0]
        assert overhead_pct(a, b) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            overhead_pct([1.0], [1.0])

    def test_spread_is_iqr_over_median(self):
        assert spread([1.0]) == 0.0
        assert spread([10.0] * 10) == 0.0
        assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


class TestReferences:
    def refs(self):
        return References({"seed": 0, "any_seed": {"figure:x": "aa"},
                           "default_seed": {"stencil": "bb"}})

    def test_wrong_digest_is_a_failure(self):
        ledger = Ledger()
        self.refs().check(ledger, "figure:x", "not-aa", seed=5)
        assert ledger.failed == 1 and ledger.error_rate == 1.0

    def test_right_digest_passes(self):
        ledger = Ledger()
        self.refs().check(ledger, "figure:x", "aa", seed=5)
        self.refs().check(ledger, "stencil", "bb", seed=0)
        assert ledger.attempted == 2 and ledger.failed == 0

    def test_default_seed_references_apply_to_that_seed_only(self):
        ledger = Ledger()
        self.refs().check(ledger, "stencil", "other", seed=7)
        assert ledger.attempted == 0

    def test_stored_references_match_the_golden_snapshots(self):
        source = (HERE.parent / "tests" / "test_golden_determinism.py").read_text()
        golden = {
            node.targets[0].id: node.value.value
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        }
        stored = json.loads(REFERENCES.read_text())
        assert stored["any_seed"]["figure:fig3"] == golden["FIG3_QUICK_SHA256"]
        assert stored["default_seed"]["scenario:stencil"] == golden["STENCIL_QUICK_SHA256"]


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        spans = [["run", 0, 100, -1], ["a", 10, 30, 0], ["b", 40, 50, 0], ["c", 12, 18, 1]]
        assert self_times(spans) == [70, 14, 10, 6]
        assert self_time_by_name(spans + [["a", 60, 65, 0]])["a"] == 19

    def test_generator_resumes_are_spans_and_values_pass_through(self):
        rec = Recorder()

        def gen():
            got = yield "first"
            with pytest.raises(KeyError):
                yield got
            return "done"

        wrapped = rec.resumes("g", gen())
        assert wrapped.send(None) == "first"
        assert wrapped.send("second") == "second"
        with pytest.raises(StopIteration) as stop:
            wrapped.throw(KeyError("x"))
        assert stop.value.value == "done"
        assert [s[0] for s in rec.spans] == ["g", "g", "g"]

    def test_patched_restores_the_original(self):
        class Owner:
            def f(self):
                return 3

        original = Owner.__dict__["f"]
        rec = Recorder()
        with patched(rec, [(Owner, "f", "owner.f", False)]):
            assert Owner().f() == 3
        assert Owner.__dict__["f"] is original
        assert [s[0] for s in rec.spans] == ["owner.f"]


def test_pingpong_driver_matches_run_pingpong():
    import drivers

    from repro.bench.pingpong import run_pingpong
    from repro.core.session import build_testbed

    ours = drivers.pingpong(build_testbed(policy="fine"), 40)
    theirs = run_pingpong(build_testbed(policy="fine"), drivers.PINGPONG_SIZE,
                          iterations=40, warmup=drivers.PINGPONG_WARMUP)
    assert ours.rtts_ns == theirs.rtts_ns
    assert ours.latency_ns == theirs.latency_ns
    assert len(ours.requests) == 40
