"""Curve comparison: extracting the paper's constant overheads.

The paper's analysis style is "curve B sits a constant N nanoseconds above
curve A, independent of message size".  :func:`constant_offset` recovers
that constant from two measured series, and :func:`offset_flatness`
quantifies how constant it really is (Fig. 3's "no impact on bandwidth"
claim is equivalent to a flat offset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class OffsetFit:
    """Result of comparing two latency series."""

    offset_ns: float
    min_ns: float
    max_ns: float
    spread_ns: float
    npoints: int

    @property
    def is_constant(self) -> bool:
        """Heuristic flatness check: spread within 20 % of the offset or
        under 100 ns, whichever is looser."""
        return self.spread_ns <= max(abs(self.offset_ns) * 0.4, 100.0)


def _paired(
    base: Sequence[tuple[int, float]], other: Sequence[tuple[int, float]]
) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    base_map = dict(base)
    other_map = dict(other)
    sizes = sorted(set(base_map) & set(other_map))
    if not sizes:
        raise ValueError("series share no sizes")
    return (
        np.array([base_map[s] for s in sizes], dtype=float),
        np.array([other_map[s] for s in sizes], dtype=float),
    )


def constant_offset(
    base: Sequence[tuple[int, float]],
    other: Sequence[tuple[int, float]],
) -> OffsetFit:
    """Median per-size difference ``other - base`` over shared sizes.

    Series are ``(size, latency)`` pairs in any order; latencies may be in
    any unit (the offset comes back in the same unit).
    """
    import numpy as np

    b, o = _paired(base, other)
    diffs = o - b
    return OffsetFit(
        offset_ns=float(np.median(diffs)),
        min_ns=float(diffs.min()),
        max_ns=float(diffs.max()),
        spread_ns=float(diffs.max() - diffs.min()),
        npoints=diffs.size,
    )


def offset_flatness(fit: OffsetFit) -> float:
    """Spread-to-offset ratio; ~0 for a perfectly constant overhead."""
    if fit.offset_ns == 0:
        return float("inf") if fit.spread_ns else 0.0
    return fit.spread_ns / abs(fit.offset_ns)


def ratio_series(
    base: Sequence[tuple[int, float]],
    other: Sequence[tuple[int, float]],
) -> list[tuple[int, float]]:
    """Per-size ``other / base`` ratios (for the Fig. 5 '2x' claim)."""
    base_map = dict(base)
    other_map = dict(other)
    sizes = sorted(set(base_map) & set(other_map))
    if not sizes:
        raise ValueError("series share no sizes")
    out = []
    for s in sizes:
        if base_map[s] <= 0:
            raise ValueError(f"non-positive baseline at size {s}")
        out.append((s, other_map[s] / base_map[s]))
    return out
