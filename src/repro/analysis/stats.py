"""Summary statistics for benchmark samples.

The simulator is deterministic by default, so most samples are degenerate;
these helpers exist for jitter-enabled runs and for samples taken over
several seeds, whose values genuinely spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one sample."""

    n: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    p95: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.3f} median={self.median:.3f} "
            f"std={self.std:.3f} min={self.minimum:.3f} max={self.maximum:.3f} "
            f"p95={self.p95:.3f}"
        )


def summarize(sample: Sequence[float]) -> Summary:
    """Compute a :class:`Summary`; rejects empty samples loudly."""
    import numpy as np

    if len(sample) == 0:
        raise ValueError("cannot summarize an empty sample")
    arr = np.asarray(sample, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return Summary(
        n=arr.size,
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p95=float(np.percentile(arr, 95)),
    )


def trimmed_mean(sample: Sequence[float], trim: float = 0.1) -> float:
    """Mean after dropping the ``trim`` fraction at each tail (robust to
    warmup stragglers in rt measurements)."""
    if not 0 <= trim < 0.5:
        raise ValueError("trim must be in [0, 0.5)")
    import numpy as np

    if len(sample) == 0:
        raise ValueError("cannot average an empty sample")
    arr = np.sort(np.asarray(sample, dtype=float))
    k = int(math.floor(arr.size * trim))
    kept = arr[k : arr.size - k] if arr.size - 2 * k > 0 else arr
    return float(kept.mean())


def confidence_interval_95(sample: Sequence[float]) -> tuple[float, float]:
    """Normal-approximation 95 % CI of the mean."""
    s = summarize(sample)
    if s.n < 2:
        return (s.mean, s.mean)
    half = 1.96 * s.std / math.sqrt(s.n)
    return (s.mean - half, s.mean + half)


def speedup(baseline: float, improved: float) -> float:
    """baseline/improved; >1 means ``improved`` is faster."""
    if improved <= 0:
        raise ValueError("improved time must be > 0")
    return baseline / improved
