"""The layer ladder: the stack built rung by rung through public
constructors, each rung adding one layer to the one below (the paper's
§1 method of decomposing thread support by adding one mechanism at a
time to a bare pingpong and subtracting).

Rungs, with the unit each new layer is priced in:

1. ``sim.engine``: an ``Engine.call_after`` timer storm (per event);
2. ``sim.scheduler``: threads on a ``Machine`` yielding ``Delay`` (per event);
3. ``sim.sync``: ``SpinLock`` and ``Semaphore`` handoffs (per handoff:
   a lock acquisition or a blocked wait);
4. ``net``: raw ``Driver.post_send``/``poll`` packets over ``wire_pair``
   (per packet);
5. ``core``: the library pingpong under each locking policy (per message);
6. ``pioman``: the fine pingpong with PIOMan busy waiting (per message);
7. ``workloads``: the ``stencil-pioman`` workload, i.e. madmpi plus the
   scenario harness (per message).

Each rung is timed untraced.  Its exact counts come from one more run of
the same rung with a scheduler tracer attached, the only public source of
the number of blocked waits; the timed runs must repeat its event count.
A rep times every rung once; each metric is the median over reps of that
rep's attribution.
"""

from __future__ import annotations

import contextlib
import time
from types import SimpleNamespace
from typing import Callable

import drivers
from measure import Ledger, amdahl_ceiling, ladder_subtract, median

from repro.core.session import build_testbed
from repro.core.waiting import BusyWait, PiomanBusyWait
from repro.net.drivers.mx import MXDriver
from repro.net.fabric import Fabric, wire_pair
from repro.obs import capture as obs_capture
from repro.pioman.integration import attach_pioman
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.process import Acquire, Delay, Release
from repro.sim.sync import Semaphore, SpinLock
from repro.sim.topology import quad_xeon_x5460
from repro.sim.trace import Tracer

#: rung sizes: each timed run takes 0.2–1.5 s on a 2-core x86 host
STORM_EVENTS = 200_000
STORM_CHAINS = 8
SCHED_YIELDS = 10_000
SYNC_ROUNDS = 4_000
NET_PACKETS = 4_000
CORE_ITERATIONS = 1_000
#: ring capacity of the counting tracer: large enough never to drop
TRACE_CAPACITY = 5_000_000

POLICIES = ("none", "coarse", "fine")


def _blocks(machines) -> int:
    """Blocked waits recorded by the machines' tracers."""
    total = 0
    for machine in machines:
        if machine.tracer.dropped:
            raise RuntimeError(f"{machine.name}: tracer dropped events")
        total += sum(1 for event in machine.tracer.events if event.kind == "block")
    return total


def _timed(fn: Callable[[], object]) -> tuple[int, object]:
    t0 = time.perf_counter_ns()
    out = fn()
    return time.perf_counter_ns() - t0, out


def _machine(engine: Engine, name: str, traced: bool) -> Machine:
    machine = Machine(engine, quad_xeon_x5460(), name=name)
    if traced:
        machine.attach_tracer(Tracer(TRACE_CAPACITY))
    return machine


def rung_engine(seed: int, traced: bool, ledger: Ledger) -> dict:
    engine = Engine()

    def tick(left: int) -> None:
        if left:
            engine.call_after(10, tick, left - 1)

    for chain in range(STORM_CHAINS):
        engine.call_after(chain + 1, tick, STORM_EVENTS // STORM_CHAINS)
    host_ns, _ = _timed(engine.run)
    return {"host_ns": host_ns, "events": engine.events_run}


def rung_scheduler(seed: int, traced: bool, ledger: Ledger) -> dict:
    engine = Engine()
    machine = _machine(engine, "sched", traced)

    def worker():
        delay = Delay(100, "compute")
        for _ in range(SCHED_YIELDS):
            yield delay

    for core in range(machine.ncores):
        machine.scheduler.spawn(worker(), name=f"w{core}", core=core, bound=True)
    host_ns, _ = _timed(engine.run)
    return {"host_ns": host_ns, "events": engine.events_run}


def rung_sync(seed: int, traced: bool, ledger: Ledger) -> dict:
    """Two threads contend for a spinlock while two others hand a token
    back and forth through a pair of semaphores."""
    engine = Engine()
    machine = _machine(engine, "sync", traced)
    lock = SpinLock("bench", costs=machine.costs)
    ping, pong = Semaphore(machine, 0, "ping"), Semaphore(machine, 0, "pong")

    def locker():
        for _ in range(SYNC_ROUNDS):
            yield Acquire(lock)
            yield Delay(50, "compute")
            yield Release(lock)
            yield Delay(20, "compute")

    def pinger():
        for _ in range(SYNC_ROUNDS):
            pong.post()
            yield from ping.wait()

    def ponger():
        for _ in range(SYNC_ROUNDS):
            yield from pong.wait()
            ping.post()

    for core, gen in enumerate((locker(), locker(), pinger(), ponger())):
        machine.scheduler.spawn(gen, name=f"t{core}", core=core, bound=True)
    host_ns, _ = _timed(engine.run)
    out = {"host_ns": host_ns, "events": engine.events_run,
           "lock_acquires": lock.acquisitions}
    if traced:
        out["blocks"] = _blocks([machine])
    return out


def rung_net(seed: int, traced: bool, ledger: Ledger) -> dict:
    engine = Engine()
    node_a, node_b = _machine(engine, "A", traced), _machine(engine, "B", traced)
    drv_a, drv_b = wire_pair(Fabric(), node_a, node_b, MXDriver, name="bench")
    packet = SimpleNamespace(wire_size=1_024, host_copy_bytes=1_024)

    def sender():
        for _ in range(NET_PACKETS):
            yield from drv_a.post_send(packet)

    def receiver():
        got = 0
        while got < NET_PACKETS:
            arrived = yield from drv_b.poll()
            got += arrived is not None

    node_a.scheduler.spawn(sender(), name="tx", core=0, bound=True)
    node_b.scheduler.spawn(receiver(), name="rx", core=0, bound=True)
    host_ns, _ = _timed(engine.run)
    return {"host_ns": host_ns, "events": engine.events_run,
            "packets": drv_a.nic.tx_packets}


def _observed(traced: bool):
    if traced:
        return obs_capture.observe(trace=True, metrics=False, max_events=TRACE_CAPACITY)
    return contextlib.nullcontext()


def rung_core(policy: str, *, pioman: bool = False) -> Callable[[int, bool, Ledger], dict]:
    def run(seed: int, traced: bool, ledger: Ledger) -> dict:
        with _observed(traced):
            bed = build_testbed(policy=policy, seed=seed)
        wait = BusyWait
        if pioman:
            for node in range(2):
                attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=[0])
            wait = PiomanBusyWait
        host_ns, pp = _timed(lambda: drivers.pingpong(bed, CORE_ITERATIONS, wait_factory=wait))
        drivers.check_pingpong(ledger, pp, f"ladder {policy}{'+pioman' if pioman else ''}")
        out = {"host_ns": host_ns, "latency_ns": pp.latency_ns,
               **drivers.counters([bed])}
        if traced:
            out["blocks"] = _blocks(bed.machines)
        return out

    return run


def rung_stencil(seed: int, traced: bool, ledger: Ledger) -> dict:
    """The ``stencil-pioman`` workload; the traced run also reads the lock
    counters through ``repro.obs`` and keeps the run's simulated outputs."""
    with _observed(traced) as observation:
        host_ns, run = _timed(lambda: drivers.stencil(seed))
    drivers.check_stencil(ledger, run, "ladder stencil")
    out = {"host_ns": host_ns, **drivers.counters(run.beds)}
    if traced:
        locks = observation.metrics_registry().locks.values()
        pioman = [lib.pioman.stats() for bed in run.beds for lib in bed.libs]
        out.update(
            blocks=_blocks(run.beds[0].machines),
            registry_acquires=sum(lock["acquisitions"] for lock in locks),
            registry_contentions=sum(lock["contentions"] for lock in locks),
            completed=sum(stats["completed"] for stats in pioman),
            run=run,
        )
    return out


#: (rung, measuring function) in ladder order
RUNGS: tuple[tuple[str, Callable], ...] = (
    ("sim.engine", rung_engine),
    ("sim.scheduler", rung_scheduler),
    ("sim.sync", rung_sync),
    ("net", rung_net),
    *((f"core.{p}", rung_core(p)) for p in POLICIES),
    ("pioman", rung_core("fine", pioman=True)),
    ("workloads", rung_stencil),
)


def measure(seed: int, reps: int, ledger: Ledger) -> list[dict[str, dict]]:
    """One set of rung samples per rep: the counts of one traced run per
    rung, with the host ns of an untraced run.  A rep runs every rung in
    turn, so the rungs it compares ran close together in time."""
    counted = {name: fn(seed, True, ledger) for name, fn in RUNGS}
    reps_out = []
    for _ in range(reps):
        rep = {}
        for name, fn in RUNGS:
            timed = fn(seed, False, ledger)
            ledger.expect_equal(
                timed["events"], counted[name]["events"],
                f"ladder {name}: events untraced vs traced",
            )
            rep[name] = {**counted[name], "host_ns": timed["host_ns"]}
        reps_out.append(rep)
    return reps_out


def _counts(sample: dict, *, msgs: bool) -> dict[str, float]:
    counts = {
        "events": sample["events"],
        "handoffs": sample.get("lock_acquires", 0) + sample.get("blocks", 0),
        "packets": sample.get("packets", 0),
    }
    if msgs:
        counts["msgs"] = sample["msgs"]
    return counts


def unit_costs(samples: dict[str, dict]) -> dict[str, float]:
    """Host ns of each layer in its own unit, by subtraction."""
    s = samples
    engine = s["sim.engine"]["host_ns"] / s["sim.engine"]["events"]
    per_event = s["sim.scheduler"]["host_ns"] / s["sim.scheduler"]["events"]
    costs = {"sim.engine": engine, "sim.scheduler": per_event - engine}
    lower = {"events": per_event}
    sync = s["sim.sync"]
    costs["sim.sync"] = ladder_subtract(
        sync["host_ns"], {"events": sync["events"]}, lower, _counts(sync, msgs=False)["handoffs"]
    )
    lower["handoffs"] = costs["sim.sync"]
    net = s["net"]
    costs["net"] = ladder_subtract(
        net["host_ns"], {"events": net["events"]}, lower, net["packets"]
    )
    lower["packets"] = costs["net"]
    for policy in POLICIES:
        rung = s[f"core.{policy}"]
        costs[f"core.{policy}"] = ladder_subtract(
            rung["host_ns"], _counts(rung, msgs=False), lower, rung["msgs"]
        )
    lower["msgs"] = costs["core.fine"]
    rung = s["pioman"]
    costs["pioman"] = ladder_subtract(
        rung["host_ns"], _counts(rung, msgs=True), lower, rung["msgs"]
    )
    lower["msgs"] += costs["pioman"]
    rung = s["workloads"]
    costs["workloads"] = ladder_subtract(
        rung["host_ns"], _counts(rung, msgs=True), lower, rung["msgs"]
    )
    return costs


#: layers on each sim workload's path, and the rung measuring that workload
PATHS = {
    "pingpong-fine": ("core.fine", ("sim.engine", "sim.scheduler", "sim.sync", "net", "core")),
    "stencil-pioman": ("workloads", ("sim.engine", "sim.scheduler", "sim.sync", "net",
                                     "core", "pioman", "workloads")),
}


def shares(samples: dict[str, dict], costs: dict[str, float]) -> dict[str, dict[str, float]]:
    """Each layer's share of a workload's host time: its unit cost times
    the workload's count of that unit, over the workload's host time."""
    out = {}
    for workload, (rung_name, layers) in PATHS.items():
        rung = samples[rung_name]
        counts = _counts(rung, msgs=True)
        layer_ns = {
            "sim.engine": counts["events"] * costs["sim.engine"],
            "sim.scheduler": counts["events"] * costs["sim.scheduler"],
            "sim.sync": counts["handoffs"] * costs["sim.sync"],
            "net": counts["packets"] * costs["net"],
            "core": counts["msgs"] * costs["core.fine"],
            "pioman": counts["msgs"] * costs["pioman"],
            "workloads": counts["msgs"] * costs["workloads"],
        }
        out[workload] = {layer: layer_ns[layer] / rung["host_ns"] for layer in layers}
    return out


def report(reps: list[dict[str, dict]]) -> dict[str, float]:
    """Per-layer metrics of the ladder: each the median over reps."""
    per_rep = [_report(samples) for samples in reps]
    return {name: median([rep[name] for rep in per_rep]) for name in per_rep[0]}


def _report(samples: dict[str, dict]) -> dict[str, float]:
    costs = unit_costs(samples)
    metrics = {
        "sim.engine.ns_per_event": costs["sim.engine"],
        "sim.scheduler.ns_per_event": costs["sim.scheduler"],
        "sim.sync.ns_per_handoff": costs["sim.sync"],
        "net.ns_per_packet": costs["net"],
        **{f"core.ns_per_msg.{p}": costs[f"core.{p}"] for p in POLICIES},
        "pioman.ns_per_msg": costs["pioman"],
        "workloads.ns_per_msg": costs["workloads"],
    }
    for workload, by_layer in shares(samples, costs).items():
        for layer, share in by_layer.items():
            metrics[f"{layer}.share.{workload}"] = share
            metrics[f"{layer}.amdahl_ceiling.{workload}"] = amdahl_ceiling(share)
    none = samples["core.none"]["latency_ns"]
    metrics["core.sim_overhead_ns.coarse"] = samples["core.coarse"]["latency_ns"] - none
    metrics["core.sim_overhead_ns.fine"] = samples["core.fine"]["latency_ns"] - none
    metrics["pioman.sim_overhead_ns"] = (
        samples["pioman"]["latency_ns"] - samples["core.fine"]["latency_ns"]
    )
    return metrics
