"""Parallel sweep execution: fan independent (config, size) points out
to a persistent process pool.

Every sweep point builds its own fresh testbed inside its ``PointFn``
(see :mod:`repro.bench.runner`), so points are fully independent — like
separate benchmark runs on the paper's cluster — and can execute in any
order on any process.  This module supplies the worker-pool machinery:

* :func:`resolve_workers` — pick the worker count from an explicit
  argument, the ``REPRO_BENCH_WORKERS`` environment variable, or the
  sequential default of 1;
* :func:`points_picklable` — decide whether a sweep can cross a process
  boundary at all (closures can't; ``functools.partial`` over
  module-level functions can);
* :func:`get_pool` — the **persistent pool**: one process pool shared by
  every sweep of a suite run (created on first use, reused until the
  requested worker count changes, torn down at interpreter exit), so the
  per-sweep spawn cost is paid once per suite instead of once per figure;
* :func:`compute_chunksize` — the size-aware dispatch granularity: big
  uniform grids batch a few points per IPC round-trip, skewed grids
  (one huge point among small ones — fig8b's shape) dispatch
  point-by-point so a long-tail point never serializes a chunk of quick
  ones behind it;
* :func:`measure_point` — run one task, under its own observation when
  the task carries an observation spec; the same function runs a point
  in-process or on a worker;
* :func:`run_tasks` — execute tasks via index-tagged ``imap_unordered``
  (workers pull work dynamically) and reassemble the results
  **positionally**, so the returned list is indistinguishable from a
  sequential run.

Determinism: the task list is built config-major/size-minor exactly like
the sequential loop, every task carries its own index, results are
written back by index, and each point's simulation is seeded by its own
testbed — so the merged ResultSet serializes byte-identically to the
sequential one at any worker count and with any chunking.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from typing import Callable, Mapping, Sequence

#: environment variable consulted when no explicit worker count is given
WORKERS_ENV = "REPRO_BENCH_WORKERS"

#: measures one (config, size) point; returns latency in microseconds
PointFn = Callable[[int], float]

#: dispatch granularity target: ~this many chunks per worker keeps the
#: scheduling dynamic (idle workers keep pulling) without one IPC
#: round-trip per point on big uniform grids
CHUNKS_PER_WORKER = 4

#: a grid whose heaviest point exceeds this multiple of the mean point
#: weight is *skewed*: dispatch point-by-point so the long tail never
#: waits behind a batch of cheap points
SKEW_RATIO = 2.0


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the effective worker count.

    Precedence: explicit ``workers`` argument, then the
    ``REPRO_BENCH_WORKERS`` environment variable, then 1 (sequential).

    Raises:
        ValueError: on a non-positive or non-integer setting.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    if workers <= 0:
        raise ValueError(f"workers must be > 0, got {workers}")
    return workers


def points_picklable(
    configs: Mapping[str, PointFn],
    extra: Callable[[str, int], dict] | None = None,
) -> bool:
    """True when every point function (and ``extra``) survives pickling.

    Lambdas and locally-defined closures do not; the benchmark modules
    therefore express their points as ``functools.partial`` over
    module-level measurement functions.  A non-picklable sweep falls back
    to in-process execution (with a one-time warning from
    :func:`repro.bench.runner.run_sweep` naming the sweep) — parallelism
    is an optimisation, never a requirement.
    """
    try:
        for fn in configs.values():
            pickle.dumps(fn)
        if extra is not None:
            pickle.dumps(extra)
    except Exception:
        return False
    return True


def compute_chunksize(weights: Sequence[float], workers: int) -> int:
    """Explicit dispatch chunk size for a task list with per-task
    ``weights`` (the message sizes — the best cheap proxy for point cost).

    Uniform grids get ``len // (workers * CHUNKS_PER_WORKER)`` tasks per
    chunk (bounded below by 1): enough batching to amortize IPC, enough
    chunks that finishing workers keep pulling.  A skewed grid — heaviest
    point above :data:`SKEW_RATIO` × the mean — always uses 1, because
    any chunk containing the long-tail point would serialize its
    neighbours behind it and stretch the sweep's makespan.
    """
    n = len(weights)
    if n == 0 or workers <= 0:
        return 1
    chunk = max(1, n // (workers * CHUNKS_PER_WORKER))
    if chunk == 1:
        return 1
    mean = sum(weights) / n
    if mean > 0 and max(weights) / mean > SKEW_RATIO:
        return 1
    return chunk


def measure_point(task: tuple) -> float | tuple[float, dict]:
    """Run one ``(name, fn, size)`` point.  Module-level so the pool can
    import it under the ``spawn`` start method.

    With a 4th ``(trace, max_events)`` element, the point runs under its
    own observation context (:mod:`repro.obs.capture`) and the serialized
    capture rides back with the measurement, so the sweep can merge every
    point's capture in deterministic sweep order.
    """
    _name, fn, size = task[:3]
    spec = task[3] if len(task) > 3 else None
    if spec is None:
        return fn(size)
    from repro.obs import capture as obs_capture

    trace, max_events = spec
    with obs_capture.observe(trace=trace, max_events=max_events) as obs:
        latency = fn(size)
    return latency, obs.serialize()


def _measure_indexed(item: tuple[int, tuple]) -> tuple[int, object]:
    """Worker-side shim for ``imap_unordered``: tag the outcome with the
    task's sweep index so the parent can reassemble positionally."""
    index, task = item
    return index, measure_point(task)


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap, inherits sys.path), else the
    platform default (``spawn`` on Windows/macOS)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


#: the persistent pool and its worker count, shared by every sweep
_pool: tuple[multiprocessing.pool.Pool, int] | None = None

_pool_stats = {"created": 0, "reused": 0, "dispatched": 0}


def get_pool(workers: int) -> multiprocessing.pool.Pool:
    """The shared process pool, created on first use and reused by every
    subsequent sweep requesting the same worker count.

    A different count tears the old pool down and spawns a fresh one —
    within one suite run the count is constant, so the spawn cost is paid
    exactly once however many sweeps the suite fans out.
    """
    global _pool
    if _pool is not None:
        pool, size = _pool
        if size == workers:
            _pool_stats["reused"] += 1
            return pool
        shutdown_pool()
    pool = _pool_context().Pool(processes=workers)
    _pool = (pool, workers)
    _pool_stats["created"] += 1
    return pool


def shutdown_pool() -> None:
    """Tear down the persistent pool (no-op when none is alive)."""
    global _pool
    if _pool is None:
        return
    pool, _ = _pool
    _pool = None
    pool.terminate()
    pool.join()


atexit.register(shutdown_pool)


def pool_stats() -> dict[str, int]:
    """Snapshot of pool lifecycle counters: pools ``created``, sweeps that
    ``reused`` a live pool, tasks ``dispatched``."""
    return dict(_pool_stats)


def pool_stats_delta(before: Mapping[str, int]) -> dict[str, int]:
    """Counter difference since a :func:`pool_stats` snapshot."""
    return {k: v - before.get(k, 0) for k, v in _pool_stats.items()}


def run_tasks(tasks: Sequence[tuple], workers: int) -> list:
    """Measure a list of :func:`measure_point` tasks on the persistent
    pool; outcomes return positionally aligned with ``tasks``.

    Scheduling is dynamic — index-tagged ``imap_unordered`` with
    :func:`compute_chunksize` granularity — so skewed grids load-balance;
    the index tags restore sequential order on the way back.
    """
    if not tasks:
        return []
    pool = get_pool(workers)
    chunksize = compute_chunksize(
        [task[2] for task in tasks], min(workers, len(tasks))
    )
    outcomes: list = [None] * len(tasks)
    for index, outcome in pool.imap_unordered(
        _measure_indexed, list(enumerate(tasks)), chunksize=chunksize
    ):
        outcomes[index] = outcome
    _pool_stats["dispatched"] += len(tasks)
    return outcomes

