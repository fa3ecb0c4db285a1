"""Parameter sweeps: turn per-point measurement functions into ResultSets.

:func:`run_sweep` is the funnel of every workload scenario and of the
seven latency figures (fig3, fig5, fig6, fig7, fig8, fig8b, fig9), whose
points are all :func:`repro.bench.pingpong.latency_point` over one
:class:`~repro.bench.pingpong.Series` each.  The other four —
``lockcost``, ``dedicated-core``, ``fixed-spin`` and ``decompose`` —
measure directly and bypass it.  It is where the two pipeline
optimisations meet:

* the **incremental point cache** (:mod:`repro.bench.cache`): each
  (config, size) point is fingerprinted and looked up before anything is
  simulated — warm points replay their stored latency (and observation
  blob), only cold points are measured, and fresh measurements are stored
  back;
* the **persistent worker pool** (:mod:`repro.bench.parallel`): with
  ``workers > 1`` the cold points go through the ordered ``imap`` of a
  process pool shared across every sweep of the suite run, one point per
  dispatch so skewed grids load-balance; otherwise they run in this
  process.

Both are pure wall-clock optimisations: the returned ResultSet has the
same records in the same order with the same JSON serialization whether
points were computed or replayed, sequentially or on any worker count.

The execution settings — worker count, cache switch, observation — live
in one :func:`sweep_session`, opened by ``figures.render``,
``matrix.run_scenario`` and the two command lines; sweeps run with no
session open use the ``REPRO_BENCH_WORKERS``/``REPRO_BENCH_CACHE``
defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
from typing import Callable, Iterator, Mapping

from repro.bench import cache as point_cache
from repro.bench import parallel
from repro.bench.config import BenchConfig
from repro.obs import capture as obs_capture
from repro.util.records import ResultRecord, ResultSet

#: measures one (config, size) point; returns latency in microseconds
PointFn = Callable[[int], float]


@dataclasses.dataclass
class SweepSession:
    """The resolved execution settings of the sweeps run inside one
    :func:`sweep_session`, and the counters its footnote reports."""

    workers: int
    cache: bool
    observation: obs_capture.Observation | None = None
    trace: str | None = None
    metrics: bool = False
    cache_before: point_cache.CacheStats = dataclasses.field(
        default_factory=point_cache.stats
    )
    pool_before: dict[str, int] = dataclasses.field(
        default_factory=parallel.pool_stats
    )

    def note(self) -> str | None:
        """The provenance footnote — worker count, cache hits/misses and
        pool use — so every report says whether its points were computed
        or replayed; ``None`` when sequential with the cache untouched."""
        parts = []
        if self.workers > 1:
            parts.append(f"sweep: {self.workers} worker processes")
        cache = point_cache.stats().delta(self.cache_before)
        if cache.hits or cache.misses or cache.invalidations:
            bit = f"cache: {cache.hits} hit(s) / {cache.misses} miss(es)"
            if cache.invalidations:
                bit += f" / {cache.invalidations} discarded"
            if cache.misses == 0 and cache.hits:
                bit += " — fully replayed"
            parts.append(bit)
        pool = parallel.pool_stats_delta(self.pool_before)
        if pool["dispatched"]:
            state = "reused" if not pool["created"] else "spawned"
            parts.append(f"pool: {pool['dispatched']} task(s) on a {state} pool")
        return "; ".join(parts) if parts else None

    def report(self) -> str:
        """The metrics report and the trace export line ("" when nothing
        was observed); writes the trace file."""
        if self.observation is None:
            return ""
        parts = []
        if self.metrics:
            parts.append(self.observation.metrics_registry().report())
        if self.trace is not None:
            doc = self.observation.export_chrome(self.trace)
            parts.append(
                f"trace: {len(doc['traceEvents'])} trace events "
                f"({self.observation.event_count()} scheduler events) -> "
                f"{self.trace}"
            )
        return "\n\n".join(parts)


_active: SweepSession | None = None


@contextlib.contextmanager
def sweep_session(
    workers: int | None = None,
    cache: bool | None = None,
    trace: str | None = None,
    metrics: bool = False,
) -> Iterator[SweepSession]:
    """Run the block's sweeps with one set of execution settings.

    ``workers``/``cache`` left at ``None`` inherit from an enclosing
    session, else resolve from ``REPRO_BENCH_WORKERS`` (default 1) and
    ``REPRO_BENCH_CACHE`` (default on).  A ``trace`` path or ``metrics``
    installs an observation (:func:`repro.obs.capture.observe`) for the
    block; :meth:`SweepSession.report` renders it afterwards.
    """
    global _active
    outer = _active
    session = SweepSession(
        workers=outer.workers
        if workers is None and outer is not None
        else parallel.resolve_workers(workers),
        cache=outer.cache
        if cache is None and outer is not None
        else point_cache.enabled(cache),
        trace=trace,
        metrics=metrics,
    )
    with contextlib.ExitStack() as stack:
        if trace is not None or metrics:
            session.observation = stack.enter_context(
                obs_capture.observe(trace=trace is not None)
            )
        _active = session
        try:
            yield session
        finally:
            _active = outer


def add_session_arguments(parser: argparse.ArgumentParser, *, trace_help: str) -> None:
    """The ``--workers/--no-cache/--trace/--metrics`` options of a sweep CLI."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per sweep (default: $REPRO_BENCH_WORKERS or "
        "1); results are identical to a sequential run",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental point cache (results/.cache/): "
        "measure every sweep point even when an identical point is "
        "already stored; equivalent to REPRO_BENCH_CACHE=0",
    )
    parser.add_argument("--trace", default=None, metavar="FILE", help=trace_help)
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the observability report (locks, core utilization, "
        "PIOMan, overhead decomposition) after the run",
    )


def session_options(args: argparse.Namespace) -> dict:
    """:func:`sweep_session` keywords from :func:`add_session_arguments`."""
    return {
        "workers": args.workers,
        "cache": False if args.no_cache else None,
        "trace": args.trace,
        "metrics": args.metrics,
    }


def _check_latency(name: str, size: int, latency_us: float) -> None:
    """Reject non-finite (NaN/inf) and negative latencies loudly.

    ``latency < 0`` alone is not enough: ``NaN < 0`` is False, so a NaN
    would sail through and poison every downstream fit/ratio.
    """
    if not math.isfinite(latency_us):
        raise ValueError(
            f"non-finite latency from config {name!r} at size {size}: {latency_us}"
        )
    if latency_us < 0:
        raise ValueError(
            f"negative latency from config {name!r} at size {size}: {latency_us}"
        )


def run_sweep(
    experiment: str,
    configs: Mapping[str, PointFn],
    cfg: BenchConfig,
    *,
    extra: Callable[[str, int], dict] | None = None,
) -> ResultSet:
    """Measure every (config, size) combination.

    Each point builds its own fresh testbed inside ``PointFn`` — points are
    fully independent, like separate benchmark runs on the paper's cluster —
    which is what makes the grid embarrassingly parallel *and* cacheable.

    Workers and cache come from the active :func:`sweep_session`.  Every
    point the cache cannot serve becomes one ``(fn, size, spec)`` task.
    With ``workers > 1`` and more than one task, the tasks run on the
    persistent pool (:func:`repro.bench.parallel.imap_points`), so point
    functions must be picklable — ``functools.partial`` over module-level
    functions; ``extra`` runs only in this process and may be anything.
    Otherwise the tasks run here, in order.  A point that fails — a
    lambda that cannot be pickled included — raises ``RuntimeError``
    naming the sweep and the point.  With the cache on, every
    fingerprintable point is looked up before measuring and stored after;
    a warm re-run replays the whole grid without building a single
    testbed.

    While an observation is active, every point runs under its own nested
    observation — in this process or on a worker — and its serialized
    capture is absorbed in sweep order, whether it was just measured or
    replayed from the cache; cached entries without a capture are misses.
    """
    if not configs:
        raise ValueError("run_sweep needs at least one config")
    if _active is not None:
        nworkers, use_cache = _active.workers, _active.cache
    else:
        nworkers, use_cache = parallel.resolve_workers(), point_cache.enabled()
    observation = obs_capture.active()
    spec = (
        (observation.trace, observation.max_events)
        if observation is not None
        else None
    )

    points = [
        (name, fn, size)
        for name, fn in configs.items()
        for size in cfg.sizes
    ]
    store = point_cache.PointCache() if use_cache else None
    keys: list[str | None] = [None] * len(points)
    latencies: list[float | None] = [None] * len(points)
    blobs: list[dict | None] = [None] * len(points)

    if store is not None:
        obs_key = ("obs", *spec) if spec is not None else None
        for i, (name, fn, size) in enumerate(points):
            keys[i] = point_cache.point_key(
                fn,
                experiment=experiment,
                config=name,
                size=size,
                cfg=cfg,
                obs_spec=obs_key,
            )
            if keys[i] is None:
                continue
            entry = store.get(keys[i], need_capture=observation is not None)
            if entry is None:
                continue
            latencies[i] = float(entry["latency_us"])
            blobs[i] = entry.get("capture")

    miss_idx = [i for i, v in enumerate(latencies) if v is None]
    tasks = [(points[i][1], points[i][2], spec) for i in miss_idx]
    if nworkers > 1 and len(tasks) > 1:
        outcomes = parallel.imap_points(tasks, nworkers)
    else:
        outcomes = map(parallel.measure_point, tasks)

    for i in miss_idx:
        name, _fn, size = points[i]
        try:
            latency_us, blob = next(outcomes)
        except Exception as exc:
            raise RuntimeError(
                f"sweep {experiment!r}: point {name!r} at size {size} "
                f"failed: {exc!r}"
            ) from exc
        _check_latency(name, size, latency_us)
        latencies[i] = latency_us
        blobs[i] = blob
        if store is not None and keys[i] is not None:
            store.put(keys[i], latency_us=latency_us, capture=blob)

    results = ResultSet()
    for i, (name, _fn, size) in enumerate(points):
        if observation is not None:
            observation.absorb(blobs[i], label=f"{experiment}/{name}/{size}")
        results.add(
            ResultRecord(
                experiment=experiment,
                config=name,
                size=size,
                latency_us=latencies[i],
                extra=extra(name, size) if extra else {},
            )
        )
    return results
