"""Deterministic per-component random streams.

The simulator is fully deterministic by default: every cost is a fixed
calibrated constant.  Optional measurement jitter (to make the synthetic
curves look like measured ones, and to exercise the statistics code on
non-degenerate samples) is drawn from named streams so that adding a
consumer never perturbs another component's sequence.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class RngHub:
    """A factory of independent, reproducibly-seeded random generators."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields the same sequence,
        regardless of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np  # loaded on the first draw, not at import

            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def jitter_ns(self, name: str, scale_ns: float) -> int:
        """A non-negative jitter sample: half-normal with the given scale.

        ``scale_ns == 0`` short-circuits to 0 without consuming randomness,
        so fully deterministic runs stay deterministic even if streams were
        created.
        """
        if scale_ns < 0:
            raise ValueError(f"scale_ns must be >= 0, got {scale_ns}")
        if scale_ns == 0:
            return 0
        return int(abs(self.stream(name).normal(0.0, scale_ns)))
