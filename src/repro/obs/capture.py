"""Observation context: capture traces and metrics from whole benchmark runs.

:func:`observe` installs a process-global :class:`Observation`.  While it
is active, every testbed built through
:func:`repro.core.session.build_testbed` is registered with it: each
machine gets a :class:`~repro.sim.trace.Tracer` attached (when tracing is
on) and the bed's locks/cores/PIOMan counters become part of the final
snapshot.  The disabled path stays free — ``build_testbed`` performs one
function call to discover that no observation is active.

Sweeps: :func:`repro.bench.runner.run_sweep` runs every point under its
*own* nested observation — in this process or on a worker — ships
:meth:`Observation.serialize` output back with the measurement (and into
the point cache), and re-absorbs the snapshots **in sequential sweep
order** — so a ``--workers 8`` or cache-replayed trace is deterministic
and identical to the sequential one.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import TestBed
    from repro.obs.metrics import MetricsRegistry

#: default ring-buffer capacity per machine tracer
DEFAULT_MAX_EVENTS = 200_000

_active: "Observation | None" = None


def active() -> "Observation | None":
    """The currently-installed observation, if any."""
    return _active


@contextlib.contextmanager
def observe(
    *,
    trace: bool = True,
    metrics: bool = True,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Iterator["Observation"]:
    """Install an :class:`Observation` for the duration of the block."""
    global _active
    obs = Observation(trace=trace, metrics=metrics, max_events=max_events)
    prev = _active
    _active = obs
    try:
        yield obs
    finally:
        _active = prev


class Observation:
    """Accumulates capture snapshots from every testbed built while active.

    Entries are either *live* (a reference to a finished testbed, snapshot
    taken lazily) or *absorbed* (an already-serialized snapshot from a
    worker process); :meth:`captures` normalizes both, preserving insertion
    order.
    """

    def __init__(
        self,
        *,
        trace: bool = True,
        metrics: bool = True,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.trace = trace
        self.metrics = metrics
        self.max_events = max_events
        self.label = "run"
        self._live: list[tuple[str, "TestBed"]] = []
        self._snapshots: list[dict] = []
        #: interleaving order: ("live", idx) / ("snap", idx)
        self._order: list[tuple[str, int]] = []

    # -- registration ----------------------------------------------------------

    def set_label(self, label: str) -> None:
        """Tag subsequently-built testbeds (e.g. ``"coarse/1024"``)."""
        self.label = label

    def on_testbed(self, bed: "TestBed") -> None:
        """Called by ``build_testbed`` for every bed built while active."""
        if self.trace:
            for machine in bed.machines:
                if machine.tracer is None:
                    machine.attach_tracer(Tracer(self.max_events))
        self._order.append(("live", len(self._live)))
        self._live.append((self.label, bed))

    def absorb(self, data: dict, *, label: str | None = None) -> None:
        """Merge a worker's :meth:`serialize` output (relabelled per point).

        Blobs also round-trip through the incremental sweep cache
        (:mod:`repro.bench.cache`): a replayed point absorbs the very
        blob its cold run serialized.  Malformed blobs — e.g. a cache
        entry corrupted on disk — raise :class:`ValueError` instead of
        being merged silently, so a broken capture can never masquerade
        as an empty one.
        """
        if not isinstance(data, dict) or not isinstance(
            data.get("captures", []), (list, tuple)
        ):
            raise ValueError(
                f"malformed observation blob: {type(data).__name__}"
            )
        for cap in data.get("captures", ()):
            if not isinstance(cap, dict) or "machines" not in cap:
                raise ValueError("malformed capture snapshot in blob")
            if label is not None:
                cap = {**cap, "label": label}
            self._order.append(("snap", len(self._snapshots)))
            self._snapshots.append(cap)

    # -- snapshots ---------------------------------------------------------------

    @staticmethod
    def _snapshot_bed(label: str, bed: "TestBed") -> dict:
        machines = []
        for i, machine in enumerate(bed.machines):
            lib = bed.libs[i] if i < len(bed.libs) else None
            tracer = machine.tracer
            machines.append(
                {
                    "name": machine.name,
                    "ncores": machine.ncores,
                    "now": bed.engine.now,
                    "utilization": machine.utilization(),
                    "transfer_ns": machine.transfer_charged_ns,
                    "dropped": tracer.dropped if tracer is not None else 0,
                    "events": [
                        (e.time, e.kind, e.thread, e.core, e.detail)
                        for e in tracer.events
                    ]
                    if tracer is not None
                    else [],
                    "locks": lib.policy.lock_stats() if lib is not None else [],
                    "pioman": (
                        lib.pioman.stats()
                        if lib is not None and lib.pioman is not None
                        else None
                    ),
                }
            )
        return {"label": label, "machines": machines}

    def captures(self) -> list[dict]:
        """Every capture as a plain dict, in registration order."""
        out = []
        for kind, idx in self._order:
            if kind == "live":
                label, bed = self._live[idx]
                out.append(self._snapshot_bed(label, bed))
            else:
                out.append(self._snapshots[idx])
        return out

    def serialize(self) -> dict:
        """Picklable snapshot of everything captured (worker → parent)."""
        return {"captures": self.captures()}

    # -- consumption ------------------------------------------------------------

    def event_count(self) -> int:
        return sum(
            len(m["events"]) for cap in self.captures() for m in cap["machines"]
        )

    def metrics_registry(self) -> "MetricsRegistry":
        from repro.obs.metrics import MetricsRegistry

        return MetricsRegistry.from_captures(self.captures())

    def export_chrome(self, path: str) -> dict:
        """Write the merged Chrome trace-event JSON; returns the document."""
        from repro.obs.chrometrace import build_trace, write_trace

        doc = build_trace(self.captures())
        write_trace(path, doc)
        return doc

    def __repr__(self) -> str:
        return (
            f"<Observation trace={self.trace} metrics={self.metrics} "
            f"captures={len(self._order)}>"
        )
