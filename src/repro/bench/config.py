"""Benchmark configuration defaults.

The simulator is deterministic, so unlike the paper's hardware runs a
handful of iterations per point suffices: the first iterations warm the
protocol paths (peer tables, unexpected-queue effects), the rest are
identical.  ``PAPER_SIZES`` is the x axis of Figures 3, 5, 6 and 7
(1 B – 2 KB); ``OVERLAP_SIZES`` that of Figure 9 (2 KB – 32 KB).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.util.units import parse_size

#: message sizes of the latency figures (1 B ... 2 KB)
PAPER_SIZES: tuple[int, ...] = tuple(2**i for i in range(0, 12))

#: message sizes of the overlap figure (2 KB ... 32 KB)
OVERLAP_SIZES: tuple[int, ...] = tuple(2**i for i in range(11, 16))


@dataclass(frozen=True)
class BenchConfig:
    """Iteration counts and sweep sizes for a benchmark run."""

    iterations: int = 24
    warmup: int = 4
    sizes: tuple[int, ...] = PAPER_SIZES
    seed: int = 0
    jitter_ns: int = 0

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be > 0")
        if not (0 <= self.warmup < self.iterations):
            raise ValueError("need 0 <= warmup < iterations")
        if not self.sizes:
            raise ValueError("sizes must be non-empty")

    @classmethod
    def quick(cls, sizes: tuple[int, ...] | None = None) -> "BenchConfig":
        """Small config for unit tests."""
        return cls(iterations=6, warmup=2, sizes=sizes or (8, 1024))

    def with_sizes(self, specs) -> "BenchConfig":
        """Copy with sizes parsed from ints or '2K'-style strings."""
        parsed = tuple(parse_size(s) for s in specs)
        return dataclasses.replace(self, sizes=parsed)

