"""Testbed assembly: build connected multi-node sessions in one call.

Mirrors the paper's experimental setup — "a set of quad-core 3.16 GHz Xeon
X5460 boxes ... interconnected through Myricom Myri-10G NICs" — as a
:class:`TestBed` value object: one shared engine, one machine + library per
node, point-to-point rails between every node pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Type

from repro.core.costmodel import CostModel
from repro.core.library import NewMadeleine
from repro.core.strategies import DefaultStrategy, Strategy
from repro.net.drivers.base import Driver
from repro.net.drivers.mx import MXDriver
from repro.net.fabric import Fabric, wire_pair
from repro.obs import capture as obs_capture
from repro.sim.costs import SimCosts
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.process import SimThread
from repro.sim.rng import RngHub
from repro.sim.topology import CacheTopology, quad_xeon_x5460


@dataclass
class TestBed:
    """A fully-wired simulated cluster."""

    engine: Engine
    fabric: Fabric
    machines: list[Machine]
    libs: list[NewMadeleine]
    costs: CostModel
    drivers: dict[tuple[int, int], list[Driver]] = field(default_factory=dict)

    def lib(self, node: int) -> NewMadeleine:
        return self.libs[node]

    def machine(self, node: int) -> Machine:
        return self.machines[node]

    def run(self, until: Callable[[], bool], *, max_time: int | None = None) -> None:
        """Run the engine until ``until()`` holds, then surface any
        simulated-thread failure.  To wait for threads, use
        :meth:`run_until_done`."""
        try:
            self.engine.run(until=until, max_time=max_time)
        finally:
            self.check_failures()

    def run_until_done(self, *threads: SimThread, max_time: int | None = None) -> None:
        """Run the engine until every thread in ``threads`` has finished
        (:meth:`Engine.run_until_done`), then surface any failure."""
        try:
            self.engine.run_until_done(*threads, max_time=max_time)
        finally:
            self.check_failures()

    def check_failures(self) -> None:
        for machine in self.machines:
            machine.check_failures()

    def shutdown(self) -> None:
        for machine in self.machines:
            machine.shutdown()


def add_rail_pair(
    bed: TestBed,
    node_a: int,
    node_b: int,
    driver_cls: Type[Driver],
    *,
    name: str | None = None,
) -> tuple[Driver, Driver]:
    """Wire an extra (possibly heterogeneous) rail between two nodes of an
    existing testbed — e.g. adding an InfiniBand port next to the MX one,
    the multirail scenario NewMadeleine's optimization layer targets."""
    if node_a == node_b:
        raise ValueError("need two distinct nodes")
    if name is None:
        existing = len(bed.drivers.get((node_a, node_b), []))
        name = f"{driver_cls.__name__.lower()}-{node_a}{node_b}x{existing}"
    drv_a, drv_b = wire_pair(
        bed.fabric, bed.machine(node_a), bed.machine(node_b), driver_cls, name=name
    )
    bed.lib(node_a).add_rail(node_b, drv_a)
    bed.lib(node_b).add_rail(node_a, drv_b)
    bed.drivers.setdefault((node_a, node_b), []).append(drv_a)
    bed.drivers.setdefault((node_b, node_a), []).append(drv_b)
    return drv_a, drv_b


def build_testbed(
    *,
    nodes: int = 2,
    policy: str = "none",
    topology_factory: Callable[[], CacheTopology] = quad_xeon_x5460,
    driver_cls: Type[Driver] = MXDriver,
    rails: int = 1,
    costs: CostModel | None = None,
    strategy_factory: Callable[[], Strategy] = DefaultStrategy,
    sim_costs: SimCosts | None = None,
    seed: int = 0,
    jitter_ns: int = 0,
) -> TestBed:
    """Create ``nodes`` machines, fully connected with ``rails`` rails per
    pair, each running a :class:`NewMadeleine` with the given policy.

    Every library gets its *own* strategy instance (strategies carry
    statistics), hence the factory.
    """
    if nodes < 2:
        raise ValueError("a testbed needs at least 2 nodes")
    if rails < 1:
        raise ValueError("rails must be >= 1")
    costs = costs or (CostModel(sim=sim_costs) if sim_costs else CostModel())
    engine = Engine()
    fabric = Fabric()
    rng = RngHub(seed)
    machines = [
        Machine(
            engine,
            topology_factory(),
            costs=costs.sim,
            name=f"node{chr(ord('A') + i)}",
            rng=rng,
            jitter_ns=jitter_ns,
        )
        for i in range(nodes)
    ]
    per_node_drivers: dict[int, list[Driver]] = {i: [] for i in range(nodes)}
    pair_drivers: dict[tuple[int, int], list[Driver]] = {}
    for a in range(nodes):
        for b in range(a + 1, nodes):
            for r in range(rails):
                name = f"{driver_cls.__name__.lower()}-{a}{b}r{r}"
                drv_a, drv_b = wire_pair(
                    fabric, machines[a], machines[b], driver_cls, name=name
                )
                per_node_drivers[a].append(drv_a)
                per_node_drivers[b].append(drv_b)
                pair_drivers.setdefault((a, b), []).append(drv_a)
                pair_drivers.setdefault((b, a), []).append(drv_b)
    libs = [
        NewMadeleine(
            machines[i],
            per_node_drivers[i],
            policy=policy,
            costs=costs,
            strategy=strategy_factory(),
            node_id=i,
        )
        for i in range(nodes)
    ]
    for a in range(nodes):
        for b in range(nodes):
            if a != b:
                libs[a].add_peer(b, pair_drivers[(a, b)])
    bed = TestBed(
        engine=engine,
        fabric=fabric,
        machines=machines,
        libs=libs,
        costs=costs,
        drivers=pair_drivers,
    )
    # observability: while an observation context is active (repro.obs),
    # every testbed registers itself so traces/metrics cover the whole run
    observation = obs_capture.active()
    if observation is not None:
        observation.on_testbed(bed)
    return bed
