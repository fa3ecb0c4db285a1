"""Tests for the workload drivers (pingpong/overlap/affinity/lockcost)."""

import pytest

from repro.bench.affinity import dedicated_core_loss, dedicated_core_throughput
from repro.bench.lockcost import (
    lock_cycles_per_message,
    measure_spin_cycle_ns,
)
from repro.bench.config import BenchConfig
from repro.bench.figures import LATENCY_SERIES
from repro.bench.pingpong import (
    PingPongResult,
    latency_point,
    run_concurrent_pingpong,
    run_pingpong,
)
from repro.core import build_testbed


class TestPingPongResult:
    def test_latency_is_half_mean_rtt(self):
        res = PingPongResult(size=8, rtts_ns=[100, 200, 300, 400], warmup=2)
        assert res.steady_rtts == [300, 400]
        assert res.latency_ns == 175.0

    def test_no_steady_iterations_rejected(self):
        res = PingPongResult(size=8, rtts_ns=[100], warmup=1)
        with pytest.raises(ValueError):
            _ = res.latency_ns


class TestRunPingpong:
    def test_records_requested_iterations(self):
        bed = build_testbed(policy="none")
        res = run_pingpong(bed, 16, iterations=5, warmup=1)
        assert len(res.rtts_ns) == 5
        assert res.size == 16

    def test_deterministic_across_builds(self):
        a = run_pingpong(build_testbed(policy="none"), 8, iterations=5, warmup=1)
        b = run_pingpong(build_testbed(policy="none"), 8, iterations=5, warmup=1)
        assert a.rtts_ns == b.rtts_ns

    def test_jitter_changes_samples(self):
        a = run_pingpong(build_testbed(policy="none"), 8, iterations=5, warmup=1)
        b = run_pingpong(
            build_testbed(policy="none", jitter_ns=200), 8, iterations=5, warmup=1
        )
        assert a.rtts_ns != b.rtts_ns

    def test_compute_phase_extends_rtt(self):
        plain = run_pingpong(build_testbed(policy="none"), 8, iterations=5, warmup=1)
        loaded = run_pingpong(
            build_testbed(policy="none"), 8, iterations=5, warmup=1, compute_ns=10_000
        )
        # 10 us of compute per side, partially overlapped with the wire:
        # at least a few extra microseconds of half-RTT remain
        assert loaded.latency_ns > plain.latency_ns + 2_000


class TestConcurrent:
    def test_flow_count(self):
        bed = build_testbed(policy="fine")
        flows = run_concurrent_pingpong(bed, 8, nflows=3, iterations=4, warmup=1)
        assert len(flows) == 3

    def test_too_many_flows_rejected(self):
        bed = build_testbed(policy="fine")
        with pytest.raises(ValueError):
            run_concurrent_pingpong(bed, 8, nflows=9)


class TestOverlap:
    def test_modes_list(self):
        fig9 = LATENCY_SERIES["fig9"]
        assert [s.offload for s in fig9.values()] == [None, "idle-core", "tasklet"]

    def test_overlap_includes_compute(self):
        reference = LATENCY_SERIES["fig9"]["reference"]
        assert reference.compute_ns == 10_000
        latency_us = latency_point(
            reference, 2048, BenchConfig(iterations=4, warmup=1)
        )
        assert latency_us > 5  # at least the compute phase shows


class TestDedicatedCore:
    def test_loss_near_quarter(self):
        loss = dedicated_core_loss(duration_ns=400_000)
        assert 0.15 <= loss <= 0.35

    def test_throughput_positive(self):
        assert dedicated_core_throughput(dedicate=False, duration_ns=200_000) > 0


class TestLockcost:
    def test_spin_cycle_is_70ns(self):
        assert measure_spin_cycle_ns(500) == pytest.approx(70, abs=2)

    @pytest.mark.parametrize(
        "policy,expected", [("none", 0), ("coarse", 2), ("fine", 3)]
    )
    def test_cycles_per_message(self, policy, expected):
        assert lock_cycles_per_message(policy) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_spin_cycle_ns(0)
