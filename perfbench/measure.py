"""Measurement helpers of the benchmark: statistics, ABBA ordering, the
layer-ladder subtraction, the Amdahl ceiling and the correctness ledger.

Nothing here imports :mod:`repro`, so the unit tests of these helpers run
without the simulator.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import traceback
from typing import Callable, Mapping, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    noise measure); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def abba_order(blocks: int) -> list[str]:
    """Balanced order for an A/B comparison: ``A B B A`` per block, so a
    drift in host speed over the block weighs on both sides equally."""
    return ["A", "B", "B", "A"] * blocks


def run_abba(
    measure_a: Callable[[], float], measure_b: Callable[[], float], blocks: int
) -> tuple[list[float], list[float]]:
    """Run both measurements in :func:`abba_order`; returns (a, b) samples."""
    a: list[float] = []
    b: list[float] = []
    for side in abba_order(blocks):
        if side == "A":
            a.append(measure_a())
        else:
            b.append(measure_b())
    return a, b


def overhead_pct(base: Sequence[float], other: Sequence[float]) -> float:
    """Cost of ``other`` over ``base`` in percent, from samples taken in
    :func:`abba_order`: the median over ABBA blocks of the block's B time
    over its A time, so each ratio compares passes run close together."""
    if len(base) != len(other) or len(base) % 2:
        raise ValueError("need the samples of whole ABBA blocks")
    ratios = [
        (other[i] + other[i + 1]) / (base[i] + base[i + 1])
        for i in range(0, len(base), 2)
    ]
    return 100.0 * (median(ratios) - 1.0)


def ladder_subtract(
    host_ns: float, counts: Mapping[str, float], unit_ns: Mapping[str, float], per: float
) -> float:
    """The cost of one rung of the layer ladder.

    A rung runs the layers below it plus one more.  Its host time minus
    what the lower rungs predict for the same run (each lower rung's unit
    cost times this run's count of that unit: events, handoffs, packets,
    messages) is the new layer's cost, divided here by ``per`` (the new
    layer's own unit count).
    """
    missing = set(counts) - set(unit_ns)
    if missing:
        raise KeyError(f"no unit cost for {sorted(missing)}")
    if per <= 0:
        raise ValueError(f"rung unit count must be positive, got {per}")
    predicted = sum(counts[unit] * unit_ns[unit] for unit in counts)
    return (host_ns - predicted) / per


def amdahl_ceiling(share: float) -> float:
    """Largest end-to-end speed-up from making a layer with this share of
    the time free: 1 / (1 - share)."""
    if not share < 1.0:
        raise ValueError(f"a layer share must be below 1, got {share}")
    return 1.0 / (1.0 - share)


def sha256_json(value: object) -> str:
    """Digest of a JSON-serialisable value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def max_rss_mb() -> float:
    """Peak resident memory of this process and of every child it waited
    for (setup probes, pool workers), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Ledger:
    """Operations attempted and failed: passes, sweep points, paper claims
    and correctness checks.  Every failure is printed to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}", file=sys.stderr)
        return ok

    def expect_equal(self, actual: object, expected: object, what: str) -> bool:
        return self.check(
            actual == expected, f"{what}: got {actual!r}, expected {expected!r}"
        )

    def attempt(self, what: str, fn: Callable[[], object]) -> object:
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"FAIL: {what} raised:", file=sys.stderr)
            traceback.print_exc()
            return None

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
