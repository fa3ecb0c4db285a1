"""Sweep determinism and the mechanism-matrix report."""

import pytest

from repro.bench.runner import sweep_session
from repro.util.records import ResultRecord, ResultSet
from repro.workloads.base import Mechanism, mechanism_grid
from repro.workloads.matrix import (
    config_label,
    mechanism_matrix,
    missing_point_count,
    rank_mechanisms,
    ranking_block,
    run_scenario,
    scenario_report,
)
from repro.workloads.registry import get


def rec(config, size, lat):
    return ResultRecord(
        experiment="workload-x", config=config, size=size, latency_us=lat,
        extra={"axis": "bytes"},
    )


def test_config_label():
    mech = Mechanism("fine", "busy", "inline")
    assert config_label(mech, "") == "fine/busy/inline"
    assert config_label(mech, "funneled") == "fine/busy/inline [funneled]"


class TestRunScenario:
    def test_quick_sweep_covers_the_grid(self):
        results = run_scenario("fanin", quick=True)
        sc = get("fanin")
        assert results.configs() == [
            m.key for m in mechanism_grid("standard")
        ]
        assert tuple(results.sizes()) == sc.quick_sizes
        assert results.missing_points() == []

    def test_same_seed_byte_identical(self):
        a = run_scenario("fanin", quick=True, seed=5)
        b = run_scenario("fanin", quick=True, seed=5)
        assert a.to_json() == b.to_json()

    def test_workers_match_sequential(self):
        seq = run_scenario("fanin", quick=True, seed=1)
        with sweep_session(workers=2):
            par = run_scenario("fanin", quick=True, seed=1)
        assert seq.to_json() == par.to_json()

    def test_variants_become_their_own_series(self):
        results = run_scenario("pipeline", quick=True)
        labels = results.configs()
        assert any(label.endswith("[funneled]") for label in labels)
        assert any(label.endswith("[multiple]") for label in labels)
        assert len(labels) == 2 * len(mechanism_grid("standard"))


class TestReports:
    def test_rank_mechanisms_orders_by_mean(self):
        rs = ResultSet([
            rec("slow", 1, 10.0), rec("slow", 2, 20.0),
            rec("fast", 1, 1.0), rec("fast", 2, 2.0),
        ])
        assert rank_mechanisms(rs) == [("fast", 1.5), ("slow", 15.0)]

    def test_rank_mechanisms_tie_breaks_on_label(self):
        rs = ResultSet([rec("b", 1, 5.0), rec("a", 1, 5.0)])
        assert [c for c, _ in rank_mechanisms(rs)] == ["a", "b"]

    def test_ranking_block_mentions_slowdown(self):
        rs = ResultSet([rec("fast", 1, 2.0), rec("slow", 1, 3.0)])
        block = ranking_block(rs)
        assert "1. fast" in block.replace("  ", " ")
        assert "(1.50x)" in block

    def test_scenario_report_and_matrix(self):
        results = run_scenario("fanin", quick=True)
        report = scenario_report(get("fanin"), results)
        assert "Workload: fanin" in report
        assert "mechanism ranking" in report

        matrix = mechanism_matrix({"fanin": results})
        assert "Workload: fanin" in matrix
        # a single scenario has no cross-scenario win table
        assert "wins across scenarios" not in matrix

    def test_matrix_win_table_for_multiple_scenarios(self):
        rs1 = ResultSet([rec("a/busy/inline", 1, 1.0), rec("b/busy/inline", 1, 2.0)])
        rs2 = ResultSet([rec("a/busy/inline [v]", 1, 1.0), rec("b/busy/inline", 1, 2.0)])
        with pytest.raises(KeyError):
            mechanism_matrix({"nope": rs1})  # unknown scenarios fail loudly
        matrix = mechanism_matrix({"fanin": rs1, "stencil": rs2})
        assert "mechanism wins across scenarios:" in matrix
        # the variant's win is credited to its mechanism
        assert "a/busy/inline" in matrix.split("wins across scenarios:")[1]

    def test_missing_point_count(self):
        full = ResultSet([rec("a", 1, 1.0), rec("a", 2, 1.0)])
        holey = ResultSet([rec("a", 1, 1.0), rec("a", 2, 1.0), rec("b", 1, 1.0)])
        assert missing_point_count({"fanin": full}) == 0
        assert missing_point_count({"fanin": full, "stencil": holey}) == 1
