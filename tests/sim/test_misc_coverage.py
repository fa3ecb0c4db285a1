"""Coverage for smaller sim/net surfaces: fabric stats, hook registry
management, engine edge cases, cost scaling."""

import pytest

from repro.net import Fabric, MXDriver, wire_pair
from repro.sim import (
    Delay,
    Engine,
    Machine,
    SimCosts,
    ThreadState,
    quad_xeon_x5460,
)
from repro.sim.hooks import HookRegistry


class TestFabric:
    def test_links_and_traffic(self):
        eng = Engine()
        a = Machine(eng, name="A")
        b = Machine(eng, name="B")
        fabric = Fabric()
        da, db = wire_pair(fabric, a, b, MXDriver)
        assert len(fabric.links) == 1
        assert fabric.total_traffic_bytes() == 0

        class P:
            wire_size = 100
            host_copy_bytes = 0

        da.nic.inject(P(), 100)
        eng.run()
        assert fabric.total_traffic_bytes() == 100

    def test_links_list_is_copy(self):
        fabric = Fabric()
        fabric.links.append("junk")  # mutating the copy
        assert fabric.links == []


class TestHookRegistry:
    def test_unregister_idle(self):
        reg = HookRegistry()

        def hook(core):
            yield Delay(1)

        reg.register_idle(hook)
        assert reg.has_idle_hooks
        reg.unregister_idle(hook)
        assert not reg.has_idle_hooks

    def test_unregister_missing_raises(self):
        reg = HookRegistry()
        with pytest.raises(ValueError):
            reg.unregister_idle(lambda core: iter([]))

    def test_interrupt_hooks_are_replaced_tuples(self):
        reg = HookRegistry()

        def hook(core):
            yield Delay(1)

        timer_before = reg.timer_hooks
        reg.register_timer(hook)
        reg.register_ctx_switch(hook)
        assert reg.timer_hooks == (hook,)
        assert reg.ctx_switch_hooks == (hook,)
        assert timer_before == (), "registration must not mutate a snapshot"

    def test_demand_empty_false(self):
        assert HookRegistry().idle_demand() is False

    def test_demand_any(self):
        reg = HookRegistry()
        reg.register_demand(lambda: False)
        reg.register_demand(lambda: True)
        assert reg.idle_demand() is True


class TestIdleLoopHooks:
    """The idle loop runs the idle hooks itself, one pass per poll."""

    def _machine(self):
        eng = Engine()
        return eng, Machine(eng, quad_xeon_x5460(), name="A")

    def test_pass_runs_a_snapshot_of_the_hooks(self):
        eng, m = self._machine()
        calls = []

        def once(core):
            m.hooks.unregister_idle(once)
            yield Delay(5, "poll")
            calls.append(("once ended", eng.now))
            return False

        def every(core):
            calls.append(("every began", eng.now))
            yield Delay(5, "poll")
            return False

        m.hooks.register_idle(once)
        m.hooks.register_idle(every)
        m.hooks.register_demand(lambda: True)
        m.enable_idle_loops(cores=[0])
        eng.run(until=lambda: len(calls) >= 4, max_time=1_000_000)
        # the pass that unregistered `once` still ran every hook it started
        # with: `every` followed `once` directly, not a poll tick later
        (first, t_once), (second, t_every) = calls[:2]
        assert (first, second) == ("once ended", "every began")
        assert t_every == t_once
        assert [name for name, _ in calls].count("once ended") == 1
        assert once not in m.hooks.idle_hooks

    def test_any_hook_reporting_work_keeps_the_core_polling(self):
        eng, m = self._machine()
        passes = []

        def busy_for_three(core):
            passes.append(eng.now)
            yield Delay(5, "poll")
            return len(passes) <= 3

        def never(core):
            yield Delay(5, "poll")
            return False

        # no demand provider: only reported work keeps the loop going
        m.hooks.register_idle(busy_for_three)
        m.hooks.register_idle(never)
        m.enable_idle_loops(cores=[0])
        assert eng.run() == "drained"
        assert len(passes) == 4
        assert m.cores[0].idle_thread.state is ThreadState.SLEEPING


class TestEngineEdges:
    def test_schedule_at_now_allowed(self):
        eng = Engine()
        fired = []
        eng.schedule_at(0, fired.append, 1)
        eng.run()
        assert fired == [1]

    def test_handle_repr(self):
        eng = Engine()
        h = eng.schedule(5, lambda: None)
        assert "pending" in repr(h)
        h.cancel()
        assert "cancelled" in repr(h)

    def test_events_interleave_across_machines(self):
        """Two machines share one clock."""
        eng = Engine()
        a = Machine(eng, quad_xeon_x5460(), name="A")
        b = Machine(eng, quad_xeon_x5460(), name="B")
        order = []

        def work(tag, ns):
            yield Delay(ns)
            order.append(tag)

        ta = a.scheduler.spawn(work("a", 200), name="a", core=0)
        tb = b.scheduler.spawn(work("b", 100), name="b", core=0)
        eng.run(until=lambda: ta.done and tb.done)
        assert order == ["b", "a"]


class TestSimCostsScaling:
    def test_all_scaled_fields(self):
        base = SimCosts()
        doubled = base.scaled(2.0)
        assert doubled.spin_acquire_ns == 2 * base.spin_acquire_ns
        assert doubled.ctx_switch_ns == 2 * base.ctx_switch_ns
        assert doubled.wake_latency_ns == 2 * base.wake_latency_ns
        assert doubled.tasklet_invoke_ns == 2 * base.tasklet_invoke_ns
        assert doubled.spawn_ns == 2 * base.spawn_ns

    def test_zero_scale(self):
        zeroed = SimCosts().scaled(0)
        assert zeroed.spin_cycle_ns == 0
        assert zeroed.block_roundtrip_ns == 0


class TestMachineRepr:
    def test_reprs_do_not_crash(self):
        eng = Engine()
        m = Machine(eng, quad_xeon_x5460(), name="X")
        assert "X" in repr(m)
        assert "X" in repr(m.cores[0])

    def test_core_accessor(self):
        m = Machine(Engine(), quad_xeon_x5460())
        assert m.core(2) is m.cores[2]
        with pytest.raises(IndexError):
            m.core(9)
