"""The §3.3 fixed-spin experiment: latency vs. the spin threshold when the
event arrives after a controlled delay (Karlin et al.'s competitive
spinning).  Figures 6 and 7 are ordinary latency series
(:data:`repro.bench.figures.LATENCY_SERIES`).
"""

from __future__ import annotations

from repro.core.session import build_testbed
from repro.core.waiting import FixedSpinWait
from repro.pioman.integration import attach_pioman
from repro.sim.process import Delay
from repro.util.records import ResultRecord, ResultSet


def run_fixed_spin_sweep(
    spin_values_ns: tuple[int, ...] = (0, 1_000, 2_000, 5_000, 10_000, 20_000),
    event_delay_ns: int = 8_000,
    *,
    iterations: int = 12,
    warmup: int = 2,
) -> ResultSet:
    """§3.3 / E9: one receive whose message arrives ``event_delay_ns`` after
    the wait starts, waited on with different spin thresholds.

    With ``spin >= delay`` the switch is avoided (latency ≈ active); with
    ``spin < delay`` the 750 ns switch cost appears but is bounded.
    """
    results = ResultSet()
    for spin_ns in spin_values_ns:
        waited: list[int] = []
        for _ in range(iterations):
            bed = build_testbed(policy="fine")
            for node in (0, 1):
                # polling pinned to the waiter's core, as in Figs. 6/7:
                # the sweep isolates the spin/block trade-off from
                # cache-affinity effects
                attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=[0])

            def receiver():
                lib = bed.lib(0)
                req = yield from lib.irecv(1, 4, 8)
                t0 = bed.engine.now
                yield from lib.wait(req, FixedSpinWait(spin_ns=spin_ns))
                waited.append(bed.engine.now - t0)

            def sender():
                lib = bed.lib(1)
                yield Delay(event_delay_ns, "compute")
                req = yield from lib.isend(0, 4, 8)
                yield from lib.wait(req)

            tr = bed.machine(0).scheduler.spawn(receiver(), name="r", core=0, bound=True)
            ts = bed.machine(1).scheduler.spawn(sender(), name="s", core=0, bound=True)
            bed.run_until_done(tr, ts)
        steady = waited[warmup:]
        mean_us = sum(steady) / len(steady) / 1_000
        results.add(
            ResultRecord(
                # one series, spin threshold on the size axis: the sweep is
                # 1-D, and a per-threshold config would render a diagonal
                # table indistinguishable from a sweep full of holes
                "fixed-spin",
                "fixed-spin wait",
                spin_ns,
                mean_us,
                extra={"event_delay_ns": event_delay_ns},
            )
        )
    return results
