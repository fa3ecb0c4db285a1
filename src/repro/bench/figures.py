"""One entry point per paper artefact: regenerate any figure's data.

Each ``fig*``/``text_*`` function measures, evaluates the paper claims and
returns ``(ResultSet, checks)``; :func:`render` prints the figure-style
table plus verdicts.  Command line::

    python -m repro.bench.figures fig3             # one figure
    python -m repro.bench.figures all              # everything (slow)
    python -m repro.bench.figures fig8 --quick     # reduced sweep
    python -m repro.bench.figures all --workers 8  # parallel sweeps

The figure functions take only ``quick``; worker count, cache and
observation come from the enclosing
:func:`~repro.bench.runner.sweep_session`, which :func:`render` opens.
Results are deterministically identical at any worker count.
"""

from __future__ import annotations

import argparse
from functools import partial
from typing import Callable

from repro.analysis.fit import constant_offset, ratio_series
from repro.bench import affinity, lockcost, waiting
from repro.bench.config import OVERLAP_SIZES, PAPER_SIZES, BenchConfig
from repro.bench.paper import PaperClaim, claim
from repro.bench.pingpong import Series, latency_point
from repro.bench.report import print_figure
from repro.bench.runner import (
    add_session_arguments,
    run_sweep,
    session_options,
    sweep_session,
)
from repro.core.waiting import BusyWait, FlagSpinWait, PassiveWait, PiomanBusyWait
from repro.sim.topology import dual_quad_xeon
from repro.util.records import ResultRecord, ResultSet

FigureResult = tuple[ResultSet, list[tuple[PaperClaim, float]]]


#: per-message timing noise for the latency sweeps: real hardware noise
#: averages the polling loop's phase quantisation away; the deterministic
#: simulator reintroduces a small calibrated amount for the same purpose
SWEEP_JITTER_NS = 150


def _cfg(quick: bool, sizes=PAPER_SIZES) -> BenchConfig:
    if quick:
        return BenchConfig(
            iterations=24,
            warmup=4,
            sizes=tuple(sizes[::3]) or sizes[:1],
            jitter_ns=SWEEP_JITTER_NS,
        )
    return BenchConfig(
        iterations=48, warmup=4, sizes=sizes, jitter_ns=SWEEP_JITTER_NS
    )


#: flow count at which the simulated node reaches the message-rate
#: saturation the 2009 testbed hit with two threads.  The simulated
#: MX path has roughly twice the per-message capacity of the paper's
#: NewMadeleine/MX stack, so the Fig. 5 saturation point shifts from 2
#: concurrent flows to 4; the coarse-vs-fine contrast is evaluated there
#: (see EXPERIMENTS.md).
FIG5_SATURATION_FLOWS = 4

#: per-message timing noise used for the concurrent runs: real hardware
#: noise is what keeps concurrent flows colliding on the locks instead of
#: settling into a deterministic anti-phase schedule
FIG5_JITTER_NS = 120

#: the computing phase Fig. 9 inserts between ``nm_isend`` and ``nm_wait``
FIG9_COMPUTE_NS = 10_000


def _fig9(offload: str | None) -> Series:
    # polling on the shared-L2 sibling of the application's CPU 0; the
    # figure is measured without the sweep jitter
    return Series(
        "fine", poll_core=1, offload=offload, jitter_ns=0, compute_ns=FIG9_COMPUTE_NS
    )


def _polling_on(core: int, **kw) -> Series:
    # Fig. 8: the application thread stays on CPU 0; with PIOMan polling
    # elsewhere it only spins on the completion flag, so the delta over
    # CPU 0 (ordinary busy waiting) is the poller-to-waiter cache transfer
    return Series(
        "fine", wait=BusyWait if core == 0 else FlagSpinWait, poll_core=core, **kw
    )


#: every latency figure as a table of series: each one the paper's
#: pingpong with one mechanism changed.  Figs. 6/7 keep PIOMan's polling
#: on the application's core to isolate its costs from cache affinity.
LATENCY_SERIES: dict[str, dict[str, Series]] = {
    "fig3": {p: Series(p) for p in ("none", "coarse", "fine")},
    "fig5": {
        # one flow cannot collide with itself: the baseline has no jitter
        "1 thread": Series("fine", jitter_ns=0),
        **{
            f"{p} ({n} threads)": Series(p, flows=n, jitter_ns=FIG5_JITTER_NS)
            for p in ("coarse", "fine")
            for n in (2, FIG5_SATURATION_FLOWS)
        },
    },
    "fig6": {
        "coarse": Series("coarse"),
        "pioman (coarse)": Series("coarse", wait=PiomanBusyWait, poll_core=0),
        "fine": Series("fine"),
        "pioman (fine)": Series("fine", wait=PiomanBusyWait, poll_core=0),
    },
    "fig7": {
        f"{mode} ({p})": Series(p, wait=wait, poll_core=0)
        for p in ("coarse", "fine")
        for mode, wait in (("active", PiomanBusyWait), ("passive", PassiveWait))
    },
    "fig8": {f"polling on cpu {c}": _polling_on(c) for c in range(4)},
    # CPU 1 shares a cache with CPU 0, CPUs 2-3 share the chip only, CPUs
    # 4-7 sit on the other chip; one representative of each tier is enough
    "fig8b": {
        f"polling on cpu {c}": _polling_on(c, topology=dual_quad_xeon)
        for c in (0, 1, 2, 4)
    },
    "fig9": {
        "reference": _fig9(None),
        "no tasklets": _fig9("idle-core"),
        "tasklets": _fig9("tasklet"),
    },
}


def run_latency(name: str, cfg: BenchConfig) -> ResultSet:
    """Sweep every series of the latency figure ``name`` over ``cfg``."""
    table = LATENCY_SERIES[name]
    return run_sweep(
        name,
        {label: partial(latency_point, series, cfg=cfg) for label, series in table.items()},
        cfg,
        extra=lambda label, size: (
            {"nflows": table[label].flows} if table[label].flows > 1 else {}
        ),
    )


def fig3_offsets(results: ResultSet) -> dict[str, float]:
    """Per-policy constant offsets over the no-locking baseline, in ns."""
    base = results.series("none")
    out = {}
    for policy in ("coarse", "fine"):
        fit = constant_offset(base, results.series(policy))
        out[policy] = fit.offset_ns * 1_000  # series are in us
    return out


def fig5_ratios(results: ResultSet) -> dict[str, list[tuple[int, float]]]:
    """Per-size latency ratios of each concurrent series over the
    single-thread baseline — the paper's 'roughly twice' claim."""
    base = results.series("1 thread")
    return {
        config: ratio_series(base, results.series(config))
        for config in results.configs()
        if config != "1 thread"
    }


def fig3(quick: bool = False) -> FigureResult:
    """Figure 3: impact of locking on latency."""
    results = run_latency("fig3", _cfg(quick))
    offsets = fig3_offsets(results)
    coarse_fit = constant_offset(results.series("none"), results.series("coarse"))
    checks = [
        (claim("fig3-coarse-offset"), offsets["coarse"]),
        (claim("fig3-fine-offset"), offsets["fine"]),
        (claim("fig3-offset-flat"), coarse_fit.spread_ns * 1_000),
    ]
    return results, checks


def fig5(quick: bool = False) -> FigureResult:
    """Figure 5: concurrent pingpongs.

    The paper's claims are evaluated at the node's saturation flow count
    (:data:`FIG5_SATURATION_FLOWS`): the simulated MX path has about twice
    the message capacity of the 2009 stack, so the two-thread saturation
    of the paper appears at four flows here.
    """
    results = run_latency("fig5", _cfg(quick))
    ratios = fig5_ratios(results)
    sat = FIG5_SATURATION_FLOWS

    def mean_ratio(config: str) -> float:
        vals = [r for _, r in ratios[config]]
        return sum(vals) / len(vals)

    coarse_ratio = mean_ratio(f"coarse ({sat} threads)")
    fine_ratio = mean_ratio(f"fine ({sat} threads)")
    checks = [
        (claim("fig5-coarse-ratio"), coarse_ratio),
        (claim("fig5-fine-better"), fine_ratio / coarse_ratio),
    ]
    return results, checks


def fig6(quick: bool = False) -> FigureResult:
    """Figure 6: impact of PIOMan on latency."""
    results = run_latency("fig6", _cfg(quick))
    fit = constant_offset(results.series("fine"), results.series("pioman (fine)"))
    checks = [(claim("fig6-pioman-offset"), fit.offset_ns * 1_000)]
    return results, checks


def fig7(quick: bool = False) -> FigureResult:
    """Figure 7: impact of semaphores (passive waiting) on latency."""
    results = run_latency("fig7", _cfg(quick))
    fit = constant_offset(
        results.series("active (fine)"), results.series("passive (fine)")
    )
    checks = [(claim("fig7-passive-offset"), fit.offset_ns * 1_000)]
    return results, checks


def fig8(quick: bool = False) -> FigureResult:
    """Figure 8: impact of cache affinity on a quad-core chip."""
    results = run_latency("fig8", _cfg(quick))
    deltas = affinity.affinity_deltas(results)
    far = (deltas["polling on cpu 2"] + deltas["polling on cpu 3"]) / 2
    checks = [
        (claim("fig8-shared-l2"), deltas["polling on cpu 1"]),
        (claim("fig8-no-shared-cache"), far),
    ]
    return results, checks


def fig8b(quick: bool = False) -> FigureResult:
    """§4.1 in-text: cache affinity on the dual quad-core node."""
    results = run_latency("fig8b", _cfg(quick))
    deltas = affinity.affinity_deltas(results)
    checks = [
        (claim("fig8b-shared-l2"), deltas["polling on cpu 1"]),
        (claim("fig8b-same-chip"), deltas["polling on cpu 2"]),
        (claim("fig8b-other-chip"), deltas["polling on cpu 4"]),
    ]
    return results, checks


def fig9(quick: bool = False) -> FigureResult:
    """Figure 9: impact of tasklets on deferred message submission."""
    results = run_latency("fig9", _cfg(quick, sizes=OVERLAP_SIZES))
    ref = results.series("reference")
    tasklet_fit = constant_offset(ref, results.series("tasklets"))
    idle_fit = constant_offset(ref, results.series("no tasklets"))
    checks = [
        (claim("fig9-tasklet-offset"), tasklet_fit.offset_ns * 1_000),
        (claim("fig9-idlecore-offset"), idle_fit.offset_ns * 1_000),
    ]
    return results, checks


def text_lockcost(quick: bool = False) -> FigureResult:
    """§3.1 text: the 70 ns spinlock cycle and per-message lock counts."""
    cycles = 100 if quick else 1_000
    cycle_ns = lockcost.measure_spin_cycle_ns(cycles)
    results = ResultSet()
    results.add(ResultRecord("lockcost", "spin cycle", 0, cycle_ns / 1_000))
    for policy in ("none", "coarse", "fine"):
        per_msg = lockcost.lock_cycles_per_message(policy)
        results.add(
            ResultRecord(
                "lockcost", f"cycles/msg ({policy})", 0, per_msg,
                extra={"unit": "acquisitions"},
            )
        )
    checks = [(claim("text-spin-cycle"), cycle_ns)]
    return results, checks


def text_dedicated_core(quick: bool = False) -> FigureResult:
    """§3.3 text: dedicating 1 of 4 cores costs up to 25 % of compute."""
    duration = 500_000 if quick else 2_000_000
    loss = affinity.dedicated_core_loss(duration_ns=duration)
    results = ResultSet()
    results.add(
        ResultRecord("dedicated-core", "throughput loss", 0, loss, extra={"unit": "fraction"})
    )
    checks = [(claim("text-dedicated-core"), loss)]
    return results, checks


def text_fixed_spin(quick: bool = False) -> FigureResult:
    """§3.3 text: the fixed-spin algorithm avoids switches for fast events."""
    iters = 6 if quick else 12
    results = waiting.run_fixed_spin_sweep(iterations=iters)
    # events arrive at 8 us: compare spin=20us (always spins through the
    # event) with spin=10us (also covers it) — they should agree with the
    # active-wait floor, unlike spin=0 (pure passive)
    active_like = results.point("fixed-spin wait", 20_000)
    pure_passive = results.point("fixed-spin wait", 0)
    checks = [
        (claim("text-fixed-spin"), (active_like - pure_passive) * 1_000),
    ]
    return results, checks


def decompose(quick: bool = False) -> FigureResult:
    """Extension: one-way latency decomposition per policy (§1's method:
    'decomposing each step of thread support')."""
    from repro.analysis.decompose import decompose_message

    results = ResultSet()
    sizes = (8,) if quick else (8, 2048)
    for policy in ("none", "coarse", "fine"):
        for size in sizes:
            d = decompose_message(policy, size)
            for stage in ("submit", "transit", "detection", "delivery"):
                results.add(
                    ResultRecord(
                        "decompose",
                        f"{policy}/{stage}",
                        size,
                        getattr(d, stage) / 1_000,
                        extra={"unit": "us"},
                    )
                )
    return results, []


FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig3": fig3,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig8b": fig8b,
    "fig9": fig9,
    "lockcost": text_lockcost,
    "dedicated-core": text_dedicated_core,
    "fixed-spin": text_fixed_spin,
    "decompose": decompose,
}

TITLES = {
    "fig3": "Figure 3 — Impact of locking on latency (us)",
    "fig5": "Figure 5 — Two concurrent pingpongs (us)",
    "fig6": "Figure 6 — Impact of PIOMan on latency (us)",
    "fig7": "Figure 7 — Impact of semaphores on latency (us)",
    "fig8": "Figure 8 — Impact of cache affinity, quad-core (us)",
    "fig8b": "§4.1 — Cache affinity, dual quad-core (us)",
    "fig9": "Figure 9 — Impact of tasklets on deferred submission (us)",
    "lockcost": "§3.1 — Spinlock cycle cost and per-message lock traffic",
    "dedicated-core": "§3.3 — Compute loss from a dedicated polling core",
    "fixed-spin": "§3.3 — Fixed-spin wait latency vs. spin threshold (us)",
    "decompose": "Extension — One-way latency decomposition by stage (us)",
}


def render(
    name: str,
    *,
    quick: bool = False,
    workers: int | None = None,
    cache: bool | None = None,
    trace: str | None = None,
    metrics: bool = False,
) -> str:
    """Measure and print one artefact in its own
    :func:`~repro.bench.runner.sweep_session`; returns the report text.

    The footnote records the worker count and how many points were
    replayed from the cache vs. computed.  ``trace`` names a Chrome
    trace-event JSON to export (open it at ui.perfetto.dev) covering every
    testbed the figure builds, worker-side ones included; ``metrics``
    appends the observability report.
    """
    try:
        fn = FIGURES[name]
    except KeyError:
        raise KeyError(f"unknown figure {name!r}; known: {sorted(FIGURES)}") from None
    with sweep_session(
        workers=workers, cache=cache, trace=trace, metrics=metrics
    ) as session:
        results, checks = fn(quick)
    text = print_figure(
        results, title=TITLES[name], checks=checks, note=session.note()
    )
    footer = session.report()
    if footer:
        print(footer)
        text = text + "\n\n" + footer
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's figures")
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    parser.add_argument("--quick", action="store_true", help="reduced sweep")
    add_session_arguments(
        parser,
        trace_help="export a Chrome trace-event JSON of every simulated "
        "testbed (open at ui.perfetto.dev); with 'all', each figure gets "
        "its own FILE suffixed by the figure name",
    )
    args = parser.parse_args(argv)
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        options = session_options(args)
        trace = options["trace"]
        if trace is not None and len(names) > 1:
            stem, dot, ext = trace.rpartition(".")
            options["trace"] = f"{stem}-{name}.{ext}" if dot else f"{trace}-{name}"
        render(name, quick=args.quick, **options)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
