"""The cache-affinity claims (Fig. 8, §4.1) and the dedicated-core
computation-loss experiment (§3.3).

Figure 8's instrument: "a pingpong test that binds the main thread to a
CPU" while the polling is delegated to a chosen core — its series are in
:data:`repro.bench.figures.LATENCY_SERIES`; :func:`affinity_deltas` reads
the per-core cost off them.
"""

from __future__ import annotations

from repro.sim.process import Delay, SimGen, YieldCore
from repro.sim.topology import quad_xeon_x5460
from repro.util.records import ResultSet


def affinity_deltas(results: ResultSet) -> dict[str, float]:
    """Per-core latency deltas (ns) over the polling-on-cpu-0 baseline,
    averaged across sizes."""
    base = dict(results.series("polling on cpu 0"))
    out: dict[str, float] = {}
    for config in results.configs():
        if config == "polling on cpu 0":
            continue
        series = dict(results.series(config))
        diffs = [series[s] - base[s] for s in series if s in base]
        out[config] = sum(diffs) / len(diffs) * 1_000  # us -> ns
    return out


# ---------------------------------------------------------------- §3.3 (E8)


def _compute_loop(stop_flag: dict, counter: list, quantum_ns: int) -> SimGen:
    """A compute thread: burn fixed quanta, count completed units, yield so
    equal-priority threads share the core fairly."""
    while not stop_flag["stop"]:
        yield Delay(quantum_ns, "compute")
        counter[0] += 1
        yield YieldCore()


def dedicated_core_throughput(
    *,
    dedicate: bool,
    nthreads: int = 4,
    duration_ns: int = 2_000_000,
    quantum_ns: int = 5_000,
) -> int:
    """§3.3: aggregate compute units finished on a quad-core node within
    ``duration_ns``, with or without one core dedicated to communication
    polling.  The paper: "dedicating one core to communication leads to up
    to 25 % decrease of the computation power"."""
    from repro.sim import Engine, Machine

    engine = Engine()
    machine = Machine(engine, quad_xeon_x5460())
    usable = machine.ncores - (1 if dedicate else 0)
    stop = {"stop": False}
    counter = [0]
    for i in range(nthreads):
        machine.scheduler.spawn(
            _compute_loop(stop, counter, quantum_ns),
            name=f"compute{i}",
            core=i % usable,
            bound=True,
        )
    if dedicate:
        # the dedicated core busy-polls the (idle) network for the whole run
        def poller():
            while not stop["stop"]:
                yield Delay(100, "poll")

        machine.scheduler.spawn(
            poller(), name="dedicated-poller", core=machine.ncores - 1, bound=True
        )
    engine.run(until=lambda: engine.now >= duration_ns, max_time=duration_ns * 2)
    stop["stop"] = True
    machine.check_failures()
    return counter[0]


def dedicated_core_loss(**kw) -> float:
    """Fractional compute-throughput loss from dedicating one core."""
    full = dedicated_core_throughput(dedicate=False, **kw)
    reduced = dedicated_core_throughput(dedicate=True, **kw)
    if full == 0:
        raise RuntimeError("compute loop made no progress")
    return (full - reduced) / full
