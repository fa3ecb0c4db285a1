"""Structured benchmark result records.

Every benchmark run produces :class:`ResultRecord` rows — one per
(configuration, message size) point — collected into a :class:`ResultSet`.
The set can be grouped into the series a figure plots and
round-tripped through JSON so that EXPERIMENTS.md entries are regenerable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


@dataclass(frozen=True)
class ResultRecord:
    """One measured point.

    Attributes:
        experiment: experiment id, e.g. ``"fig3"``.
        config: configuration label, e.g. ``"coarse"``; one figure series.
        size: message size in bytes (0 for size-less experiments).
        latency_us: measured half-round-trip latency in microseconds
            (or the experiment's headline metric).
        extra: free-form additional metrics (iteration count, throughput...).
    """

    experiment: str
    config: str
    size: int
    latency_us: float
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "size": self.size,
            "latency_us": self.latency_us,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ResultRecord":
        return cls(
            experiment=d["experiment"],
            config=d["config"],
            size=int(d["size"]),
            latency_us=float(d["latency_us"]),
            extra=dict(d.get("extra", {})),
        )


class ResultSet:
    """An ordered collection of :class:`ResultRecord` with figure-style views."""

    def __init__(self, records: Iterable[ResultRecord] = ()) -> None:
        self._records: list[ResultRecord] = list(records)

    # -- collection protocol ------------------------------------------------

    def add(self, record: ResultRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[ResultRecord]) -> None:
        """Append ``records`` preserving their order."""
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ResultRecord]:
        return iter(self._records)

    def __getitem__(self, i: int) -> ResultRecord:
        return self._records[i]

    # -- views ---------------------------------------------------------------

    def configs(self) -> list[str]:
        """Distinct config labels, in first-seen order."""
        seen: dict[str, None] = {}
        for r in self._records:
            seen.setdefault(r.config, None)
        return list(seen)

    def sizes(self) -> list[int]:
        """Distinct sizes, sorted ascending."""
        return sorted({r.size for r in self._records})

    def series(self, config: str) -> list[tuple[int, float]]:
        """``(size, latency_us)`` points of one figure series, size-sorted."""
        pts = [(r.size, r.latency_us) for r in self._records if r.config == config]
        return sorted(pts)

    def missing_points(self) -> list[tuple[str, int]]:
        """Holes in the (config, size) grid, in table render order.

        A complete sweep measures every config at every size; a partially
        failed (e.g. interrupted parallel) sweep leaves holes that would
        otherwise render indistinguishably from a complete figure.
        """
        sizes = self.sizes()
        have = {(r.config, r.size) for r in self._records}
        return [
            (config, size)
            for size in sizes
            for config in self.configs()
            if (config, size) not in have
        ]

    def point(self, config: str, size: int) -> float:
        """The latency of a single (config, size) point.

        Raises :class:`KeyError` when absent, :class:`ValueError` when
        ambiguous (duplicated point).
        """
        hits = [r.latency_us for r in self._records if r.config == config and r.size == size]
        if not hits:
            raise KeyError(f"no point ({config!r}, {size})")
        if len(hits) > 1:
            raise ValueError(f"ambiguous point ({config!r}, {size}): {len(hits)} records")
        return hits[0]

    # -- persistence ----------------------------------------------------------

    def to_csv(self) -> str:
        """Render as CSV for external plotting tools.

        Fixed columns ``experiment,config,size,latency_us`` followed by
        one column per extra key (union across records, sorted — so the
        header is deterministic); records missing a key leave the cell
        empty.  Non-scalar extra values are JSON-encoded.
        """
        import csv
        import io

        extra_keys = sorted({k for r in self._records for k in r.extra})
        out = io.StringIO(newline="")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["experiment", "config", "size", "latency_us", *extra_keys]
        )
        for r in self._records:
            cells: list[Any] = [r.experiment, r.config, r.size, r.latency_us]
            for key in extra_keys:
                value = r.extra.get(key, "")
                if isinstance(value, (dict, list, tuple)):
                    value = json.dumps(value, sort_keys=True)
                cells.append(value)
            writer.writerow(cells)
        return out.getvalue()

    def save_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self._records], indent=2)

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_json` — the byte-identity token
        the golden determinism tests and the incremental sweep cache's
        warm-vs-cold checks compare."""
        import hashlib

        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("ResultSet JSON must be a list of records")
        return cls(ResultRecord.from_dict(d) for d in data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ResultSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
