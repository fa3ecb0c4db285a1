"""Unit tests for Machine and Core accounting."""

import pathlib
import subprocess
import sys

import pytest

from repro.sim import (
    Delay,
    Engine,
    Machine,
    RngHub,
    SimCosts,
    dual_quad_xeon,
    quad_xeon_x5460,
)


class TestMachine:
    def test_defaults_to_single_core(self):
        m = Machine(Engine())
        assert m.ncores == 1

    def test_core_count_follows_topology(self):
        m = Machine(Engine(), dual_quad_xeon())
        assert m.ncores == 8

    def test_transfer_delegates_to_topology(self):
        m = Machine(Engine(), quad_xeon_x5460())
        assert m.transfer_ns(0, 2) == 1_200

    def test_utilization_snapshot(self):
        eng = Engine()
        m = Machine(eng, quad_xeon_x5460())

        def work():
            yield Delay(100, "compute")
            yield Delay(30, "poll")

        t = m.scheduler.spawn(work(), name="w", core=1)
        eng.run(until=lambda: t.done)
        util = m.utilization()
        assert util[1] == {"compute": 100, "poll": 30}
        assert util[0] == {}

    def test_check_failures_raises_original_cause(self):
        eng = Engine()
        m = Machine(eng, quad_xeon_x5460())

        def bad():
            yield Delay(1)
            raise ValueError("inner")

        m.scheduler.spawn(bad(), name="b")
        from repro.sim import SimThreadError

        with pytest.raises(SimThreadError):
            eng.run(until=lambda: False, max_time=1_000)
        with pytest.raises(SimThreadError) as info:
            m.check_failures()
        assert isinstance(info.value.__cause__, ValueError)

    def test_check_failures_quiet_when_clean(self):
        m = Machine(Engine())
        m.check_failures()

    def test_jitter_deterministic_per_seed(self):
        m1 = Machine(Engine(), rng=RngHub(7), jitter_ns=100, name="n")
        m2 = Machine(Engine(), rng=RngHub(7), jitter_ns=100, name="n")
        assert [m1.jitter("x") for _ in range(5)] == [m2.jitter("x") for _ in range(5)]

    def test_jitter_zero_without_config(self):
        m = Machine(Engine())
        assert m.jitter("x") == 0

    def test_custom_costs(self):
        costs = SimCosts(ctx_switch_ns=999)
        m = Machine(Engine(), costs=costs)
        assert m.costs.ctx_switch_ns == 999


class TestSimCosts:
    def test_paper_calibration(self):
        c = SimCosts()
        assert c.spin_cycle_ns == 70  # paper §3.1
        assert c.block_roundtrip_ns == 750  # paper §3.3, Fig. 7

    def test_scaled(self):
        c = SimCosts().scaled(2.0)
        assert c.spin_cycle_ns == 140
        assert c.timer_period_ns == SimCosts().timer_period_ns  # period unscaled

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            SimCosts().scaled(-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            SimCosts().ctx_switch_ns = 1


class TestRngHub:
    def test_same_name_same_stream(self):
        hub = RngHub(3)
        assert hub.stream("a") is hub.stream("a")

    def test_streams_independent_of_creation_order(self):
        h1, h2 = RngHub(5), RngHub(5)
        h1.stream("first")
        a1 = h1.stream("second").integers(0, 1000, 10).tolist()
        a2 = h2.stream("second").integers(0, 1000, 10).tolist()
        assert a1 == a2

    def test_jitter_nonnegative(self):
        hub = RngHub(1)
        assert all(hub.jitter_ns("j", 50) >= 0 for _ in range(100))

    def test_jitter_zero_scale(self):
        assert RngHub(1).jitter_ns("j", 0) == 0

    def test_jitter_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            RngHub(1).jitter_ns("j", -1)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngHub("x")

    def test_numpy_loaded_on_first_draw_only(self):
        """Importing the simulator, the harness and the workloads, and
        running a synthetic stencil (no jitter, no physics), leaves numpy
        unloaded; the first jitter draw loads it.  Runs in a fresh
        interpreter: this one has numpy loaded already."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from repro.bench import figures, parallel\n"
            "from repro.madmpi import create_world\n"
            "from repro.pioman import integration\n"
            "from repro.workloads import matrix, stencil\n"
            "from repro.sim import RngHub\n"
            "stencil.run_stencil('fine/passive/idle', steps=2)\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded before a draw'\n"
            "RngHub(0).jitter_ns('j', 10)\n"
            "assert 'numpy' in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
