"""The repository benchmark: one command, three workloads, two clocks.

    python3 perfbench/run.py --workload pingpong-fine --seed 0 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no tracing; ``--trace 1`` is the separate traced run that
reports the per-layer metrics (the layer ladder, the sweep harness spans,
set-up parts, exact counts and simulated stages).  Both check the
simulated outputs, print a readable report, and end with one JSON line::

    {"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  Workload choices and
their reasons are in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
REFERENCES = HERE / "references.json"
#: run artefacts (spans, temporary point caches), under the working directory
OUT = Path(".perfbench")

WORKLOADS = ("pingpong-fine", "stencil-pioman", "sweep-suite")
#: fresh processes whose median set-up time is reported
SETUP_PROBES = 7
#: timed runs per ladder rung
LADDER_REPS = 3
#: ABBA blocks for the observability tracer on/off comparison
TRACER_BLOCKS = 5
#: the paper's reference for each simulated overhead (§3)
PAPER_OVERHEADS = (
    ("core.sim_overhead_ns.coarse", "fig3-coarse-offset"),
    ("core.sim_overhead_ns.fine", "fig3-fine-offset"),
    ("pioman.sim_overhead_ns", "fig6-pioman-offset"),
)


class References:
    """Reference outputs stored with the benchmark.

    ``any_seed`` holds outputs no seed reaches (the figures and the sweep
    size); ``default_seed`` holds the rest, recorded for ``seed``.
    """

    def __init__(self, data: dict) -> None:
        self.seed = data["seed"]
        self.any_seed = data["any_seed"]
        self.default_seed = data["default_seed"]

    def check(self, ledger, key: str, actual, seed: int) -> None:
        if key in self.any_seed:
            ledger.expect_equal(actual, self.any_seed[key], f"reference {key}")
        elif seed == self.seed:
            ledger.expect_equal(actual, self.default_seed[key], f"reference {key}")


class Repeats:
    """Outputs that must read the same in every pass of a run; the first
    reading is also checked against the references."""

    def __init__(self, ledger, refs: References, seed: int) -> None:
        self.ledger, self.refs, self.seed = ledger, refs, seed
        self.first: dict[str, object] = {}

    def see(self, key: str, value) -> None:
        if key not in self.first:
            self.first[key] = value
            self.refs.check(self.ledger, key, value, self.seed)
        else:
            self.ledger.expect_equal(value, self.first[key], f"{key} in a later pass")


def setup_probes(seed: int, n: int) -> list[dict]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--seed", str(seed),
           "--scratch", str(OUT / "tmp")]
    return [
        json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                  timeout=120).stdout)
        for _ in range(n)
    ]


def run_rounds(seconds: float, one_round) -> None:
    """Repeat ``one_round`` until ``seconds`` have passed (at least once,
    and no more once a round fails)."""
    deadline = time.perf_counter() + seconds
    while one_round() and time.perf_counter() < deadline:
        pass


# -- end-to-end run (--trace 0) -------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, ledger, refs) -> tuple[dict, list]:
    """Set-up, cold and warm pass wall times and peak memory.

    A round is one pass from nothing reusable (cold) and the same pass
    repeated at once in the same process (warm).  The sweep suite's warm
    pass replays the point cache the cold pass filled and is repeated
    ``drivers.WARM_PASSES`` times per round; the simulations reuse nothing,
    so their two passes do the same work.
    """
    import drivers
    from measure import max_rss_mb, median, sha256_json, spread
    from setup_probe import SETUP_PARTS

    from repro.bench import parallel

    probes = setup_probes(seed, SETUP_PROBES)
    setup_s = median([sum(p[part] for part in SETUP_PARTS[workload]) for p in probes])
    walls: dict[str, list[float]] = {"cold": [], "warm": []}
    repeats = Repeats(ledger, refs, seed)
    notes: list[str] = []

    if workload in drivers.SIM_PASSES:
        sim_pass = drivers.SIM_PASSES[workload]

        def one_pass(phase: str) -> bool:
            done = ledger.attempt(f"{workload} pass", lambda: sim_pass(seed, ledger))
            if done is None:
                return False
            wall, outputs = done
            walls[phase].append(wall)
            for key, value in outputs.items():
                repeats.see(f"{workload}.{key}", value)
            return True

        run_rounds(seconds, lambda: one_pass("cold") and one_pass("warm"))
    else:
        points = refs.any_seed["sweep.points"]

        def one_round() -> bool:
            with drivers.fresh_cache(OUT / "tmp"):
                cold = ledger.attempt("sweep cold pass", lambda: drivers.suite_pass(seed))
                if cold is None:
                    return False
                walls["cold"].append(cold.wall_s)
                ledger.attempted += points
                drivers.check_suite(ledger, cold, "cold pass", refs.any_seed, warm=False)
                for key, digest in sorted(cold.digests.items()):
                    repeats.see(key, digest)
                for _ in range(drivers.WARM_PASSES):
                    warm = ledger.attempt("sweep warm pass", lambda: drivers.suite_pass(seed))
                    if warm is None:
                        return False
                    walls["warm"].append(warm.wall_s)
                    drivers.check_suite(ledger, warm, "warm pass", refs.any_seed, warm=True)
                    ledger.expect_equal(warm.digests, cold.digests,
                                        "warm pass ResultSets vs cold pass")
            return True

        parallel.get_pool(drivers.SWEEP_WORKERS)
        try:
            run_rounds(seconds, one_round)
        finally:
            parallel.shutdown_pool()
        notes.append(f"{len(walls['cold'])} cold passes of {points} sweep points at "
                     f"{drivers.SWEEP_WORKERS} workers, {len(walls['warm'])} warm passes")

    # two runs with one seed must print the same digest
    notes.append(f"outputs sha256 {sha256_json(repeats.first)}")
    rss = max_rss_mb()
    cold, warm = walls["cold"], walls["warm"]
    if not cold or not warm:
        return {}, notes
    rows = [
        ("setup_s", setup_s, "s", f"median of {len(probes)} fresh processes"),
        ("cold_s", median(cold), "s", f"median of {len(cold)}, spread {spread(cold):.3f}"),
        ("warm_s", median(warm), "s", f"median of {len(warm)}, spread {spread(warm):.3f}"),
        ("max_rss_mb", rss, "MB", "this process and the processes it started"),
    ]
    messages = repeats.first.get(f"{workload}.msgs")
    if messages:
        rows.insert(1, ("msgs_per_s", median([messages / w for w in cold + warm]), "1/s",
                        f"median of {len(cold + warm)} passes of {messages} messages"))
    for name, unit in (("sim_latency_ns", "sim_ns"), ("sim_makespan_us", "sim_us")):
        if f"{workload}.{name}" in repeats.first:
            rows.append((name, repeats.first[f"{workload}.{name}"], unit, "exact"))
    for name, value, unit, how in rows:
        notes.append(f"{name:<16} {value:14.4f} {unit:<6} {how}")
    units = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "max_rss_mb": "MB"}
    return {name: {"value": value, "unit": units[name]}
            for name, value, _, _ in rows if name in units}, notes


# -- traced run (--trace 1) ------------------------------------------------------------


def sim_targets() -> list:
    from repro.core import session
    from repro.core.library import NewMadeleine
    from repro.sim.engine import Engine
    from repro.workloads import base

    return [
        (session, "build_testbed", "core.build_testbed", False),
        (base, "build_testbed", "core.build_testbed", False),
        (base, "attach_pioman", "pioman.attach_pioman", False),
        (base, "create_world", "madmpi.create_world", False),
        (Engine, "run", "sim.engine.run", False),
        (NewMadeleine, "isend", "core.isend", True),
        (NewMadeleine, "irecv", "core.irecv", True),
        (NewMadeleine, "wait", "core.wait", True),
    ]


def sweep_targets() -> list:
    from repro.bench import cache, figures, parallel
    from repro.workloads import matrix

    return [
        (figures, "render", "bench.render", False),
        (matrix, "run_scenario", "workloads.run_scenario", False),
        (parallel, "get_pool", "bench.get_pool", False),
        (cache.PointCache, "get", "bench.cache_get", False),
        (cache.PointCache, "put", "bench.cache_put", False),
    ]


def layer_report(workload: str, seed: int, ledger, refs) -> tuple[dict, list]:
    """Per-layer metrics.  Every traced run reports all of them; the
    workload named on the command line is the one whose tracing overhead
    is measured, ABBA against the same workload untraced.  Each step runs
    on its own, so a failing step leaves the others' metrics."""
    import drivers
    import ladder
    from measure import median, overhead_pct, run_abba
    from spans import Recorder, patched, self_time_by_name

    from repro.bench import parallel
    from repro.bench.paper import claim
    from repro.core import session
    from repro.obs import capture as obs_capture

    metrics: dict[str, float] = {}
    notes: list[str] = []
    recorders: dict[str, Recorder] = {}

    def setup_parts() -> None:
        probes = setup_probes(seed, SETUP_PROBES)
        for name, part in (("bench.import_s", "import_s"),
                           ("core.build_testbed_s", "build_testbed_s"),
                           ("pioman.attach_s", "attach_pioman_s"),
                           ("madmpi.create_world_s", "create_world_s")):
            metrics[name] = median([p[part] for p in probes])

    def layer_ladder() -> None:
        reps = ladder.measure(seed, LADDER_REPS, ledger)
        metrics.update(ladder.report(reps))
        stencil = reps[0]["workloads"]
        run = stencil["run"]
        refs.check(ledger, "stencil-pioman.digest", drivers.stencil_digest(run), seed)
        for key, value in drivers.counters(run.beds).items():
            refs.check(ledger, f"stencil-pioman.{key}", value, seed)
        ledger.expect_equal(stencil["registry_acquires"], stencil["lock_acquires"],
                            "stencil lock acquisitions: repro.obs vs lock counters")
        metrics.update({
            "sim_makespan_us": run.makespan_us,
            "sim.engine.events.stencil-pioman": run.events,
            "sim.engine.events_per_msg.stencil-pioman": run.events / stencil["msgs"],
            "pioman.polls_per_completion": stencil["pioman_polls"] / stencil["completed"],
            "sim.sync.lock_acquires": stencil["registry_acquires"],
            "sim.sync.contended_ratio":
                stencil["registry_contentions"] / stencil["registry_acquires"],
            "sim.sync.blocks": stencil["blocks"],
        })
        for name, claim_id in PAPER_OVERHEADS:
            notes.append(f"{name:<28} {metrics[name]:8.1f} sim_ns   paper (§3): "
                         f"+{claim(claim_id).expected:.0f} ns")

    def pingpong_pass(traced: bool) -> float:
        bed = session.build_testbed(policy="fine", seed=seed)
        rec = Recorder()  # only the first traced pass's spans are kept
        first = traced and recorders.setdefault("pingpong-fine", rec) is rec
        with patched(rec, sim_targets()) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            pp = drivers.pingpong(bed, drivers.PINGPONG_ITERATIONS)
            wall = time.perf_counter() - t0
        if first:
            drivers.check_pingpong(ledger, pp, "traced pingpong")
            refs.check(ledger, "pingpong-fine.rtts", drivers.pingpong_digest(pp), seed)
            for key, value in drivers.counters([bed]).items():
                refs.check(ledger, f"pingpong-fine.{key}", value, seed)
            tx, rx = drivers.nic_bytes(bed)
            metrics.update({
                "sim_latency_ns": pp.latency_ns,
                "sim.engine.events.pingpong-fine": bed.engine.events_run,
                "sim.engine.events_per_msg.pingpong-fine":
                    bed.engine.events_run / pp.messages,
                "core.progress_passes_per_msg":
                    sum(lib.progress_passes for lib in bed.libs) / pp.messages,
                "net.tx_bytes": tx,
                "net.rx_bytes": rx,
                **{f"core.sim_ns.{k}": v for k, v in drivers.message_stages(pp).items()},
            })
            own = self_time_by_name(rec.spans)
            for name in ("core.isend", "core.irecv", "core.wait", "sim.engine.run"):
                metrics[f"{name}.self_ns_per_msg"] = own.get(name, 0) / pp.messages
        return wall

    def traced_pingpong() -> None:
        if workload == "pingpong-fine":
            plain, traced = run_abba(lambda: pingpong_pass(False),
                                     lambda: pingpong_pass(True), 1)
            metrics["trace.overhead_pct"] = overhead_pct(plain, traced)
        else:
            pingpong_pass(True)

    def tracer_pass(attached: bool) -> float:
        with obs_capture.observe(trace=True) if attached else contextlib.nullcontext():
            bed = session.build_testbed(policy="fine", seed=seed)
        t0 = time.perf_counter()
        drivers.pingpong(bed, ladder.CORE_ITERATIONS)
        return time.perf_counter() - t0

    def obs_tracer() -> None:
        off, on = run_abba(lambda: tracer_pass(False), lambda: tracer_pass(True),
                           TRACER_BLOCKS)
        metrics["obs.tracer_overhead_pct"] = overhead_pct(off, on)

    def stencil_pass(traced: bool) -> float:
        rec = Recorder()
        if traced:
            recorders.setdefault("stencil-pioman", rec)
        with patched(rec, sim_targets()) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            drivers.stencil(seed)
            return time.perf_counter() - t0

    def traced_stencil() -> None:
        plain, traced = run_abba(lambda: stencil_pass(False), lambda: stencil_pass(True), 1)
        metrics["trace.overhead_pct"] = overhead_pct(plain, traced)

    points = refs.any_seed["sweep.points"]
    walls: dict[str, list[float]] = {"T1": [], "T2": [], "U2": []}
    traced_passes: list[tuple[str, Recorder]] = []

    def sweep_pass(kind: str) -> None:
        """One cold pass: T traced or U untraced, at 1 or 2 workers."""
        workers = int(kind[1])
        parallel.shutdown_pool()  # every pass pays the pool start-up
        rec = Recorder()
        with drivers.fresh_cache(OUT / "tmp"):
            with patched(rec, sweep_targets()) if kind[0] == "T" else contextlib.nullcontext():
                cold = drivers.suite_pass(seed, workers)
            ledger.attempted += points
            drivers.check_suite(ledger, cold, f"{kind} pass", refs.any_seed, warm=False)
            for key, digest in sorted(cold.digests.items()):
                refs.check(ledger, key, digest, seed)
            if kind == "T2" and "sweep-warm" not in recorders:
                warm_rec = recorders["sweep-warm"] = Recorder()
                for _ in range(drivers.WARM_PASSES):
                    with patched(warm_rec, sweep_targets()):
                        warm = drivers.suite_pass(seed, workers)
                    drivers.check_suite(ledger, warm, "warm pass", refs.any_seed, warm=True)
                    ledger.expect_equal(warm.digests, cold.digests,
                                        "warm pass ResultSets vs cold pass")
                metrics["bench.cache_hits"] = warm.cache.hits
                metrics["bench.cache_misses"] = cold.cache.misses
                metrics["bench.warm_hit_ratio"] = warm.cache.hit_ratio()
        walls[kind].append(cold.wall_s)
        if kind[0] == "T":
            traced_passes.append((kind, rec))
            recorders[f"sweep-{kind}-{len(walls[kind])}"] = rec

    def sweep_harness() -> None:
        """Traced cold passes at workers 1 and 2 in ABBA order; for the
        sweep workload, untraced 2-worker passes around them."""
        order = ["T1", "T2", "T2", "T1"]
        if workload == "sweep-suite":
            order = ["U2", *order, "U2"]
        try:
            for kind in order:
                ledger.attempt(f"sweep {kind} pass", lambda: sweep_pass(kind))
        finally:
            parallel.shutdown_pool()
        if workload == "sweep-suite":
            metrics["trace.overhead_pct"] = overhead_pct(walls["U2"], walls["T2"])
        metrics.update(sweep_metrics(traced_passes, walls, recorders["sweep-warm"]))

    steps = [setup_parts, layer_ladder, traced_pingpong, obs_tracer, sweep_harness]
    if workload == "stencil-pioman":
        steps.insert(4, traced_stencil)
    for step in steps:
        ledger.attempt(step.__name__.replace("_", " "), step)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start_ns", "end_ns", "parent"],
         "runs": {phase: rec.spans for phase, rec in recorders.items()}},
        separators=(",", ":")), encoding="utf-8")
    notes.append(f"{sum(len(r.spans) for r in recorders.values())} spans -> {spans_path}")
    return metrics, notes


def sweep_metrics(traced_passes, walls: dict, warm_rec) -> dict[str, float]:
    """Harness metrics from the spans of the traced sweep passes.

    ``bench.compute_s`` is the self time of the figure and scenario calls
    at one worker, where every point runs in this process.  The ideal
    2-worker pass would take half of it; ``bench.ipc_s`` is what the
    2-worker pass took beyond that and beyond starting the pool:
    pickling, pipes and load imbalance.
    """
    from measure import median
    from spans import duration_ns, self_time_by_name

    from repro.bench import figures
    from repro.workloads import registry

    one = [self_time_by_name(rec.spans) for kind, rec in traced_passes if kind == "T1"]
    two = [rec for kind, rec in traced_passes if kind == "T2"]
    out = {
        "bench.compute_s": median(
            [(own["bench.render"] + own["workloads.run_scenario"]) / 1e9 for own in one]),
        "bench.pool_start_s": median(
            [duration_ns(rec.of("bench.get_pool")[0]) / 1e9 for rec in two]),
    }
    out["bench.ipc_s"] = (median(walls["T2"]) - out["bench.pool_start_s"]
                          - out["bench.compute_s"] / 2)
    puts = [duration_ns(s) for rec in two for s in rec.of("bench.cache_put")]
    gets = [duration_ns(s) for s in warm_rec.of("bench.cache_get")]
    out["bench.cache_put_ms"] = sum(puts) / len(puts) / 1e6
    out["bench.cache_get_ms"] = sum(gets) / len(gets) / 1e6
    for names, span, prefix in (
        (sorted(figures.FIGURES), "bench.render", "bench.render_s"),
        (registry.names(), "workloads.run_scenario", "workloads.scenario_s"),
    ):
        for i, name in enumerate(names):
            out[f"{prefix}.{name}"] = median(
                [duration_ns(rec.of(span)[i]) / 1e9 for rec in two])
    return out


# -- command line ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}; run it from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from measure import Ledger

    ledger = Ledger()
    refs = References(json.loads(REFERENCES.read_text(encoding="utf-8")))
    mode = "traced layer report" if args.trace else "end to end, tracing off"
    print(f"perfbench {args.workload} seed={args.seed} ({mode})")
    if args.trace:
        values, notes = layer_report(args.workload, args.seed, ledger, refs)
        spec = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]
        extra = set(values) - {m["name"] for m in spec}
        if extra:
            raise KeyError(f"per-layer metrics missing from {SPEC.name}: {sorted(extra)}")
        metrics = {}
        for m in spec:
            if ledger.check(m["name"] in values, f"per-layer metric {m['name']} not measured"):
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        metrics, notes = end_to_end(args.workload, args.seed, args.seconds, ledger, refs)
    for line in notes:
        print("  " + line)
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:16.6g} {m['unit']}")
    print(f"  error_rate {ledger.error_rate:.4g} ({ledger.failed} failed of "
          f"{ledger.attempted} attempted)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
