"""Parallel sweep execution: fan independent sweep points out to a
persistent process pool.

Every sweep point builds its own fresh testbed inside its point function
(see :mod:`repro.bench.runner`), so points are fully independent — like
separate benchmark runs on the paper's cluster — and can execute on any
process.  This module supplies the worker-pool machinery:

* :func:`resolve_workers` — pick the worker count from an explicit
  argument, the ``REPRO_BENCH_WORKERS`` environment variable, or the
  sequential default of 1;
* :func:`measure_point` — run one ``(fn, size, spec)`` task, under its
  own observation when ``spec`` asks for one; the same function runs a
  point in-process or on a worker;
* :func:`get_pool` — the **persistent pool**: one process pool shared by
  every sweep of a suite run (created on first use, reused until the
  requested worker count changes, torn down at interpreter exit), so the
  per-sweep spawn cost is paid once per suite instead of once per figure;
* :func:`imap_points` — measure a task list on that pool with the
  ordered ``imap``: one point per dispatch, so idle workers keep pulling
  and a long point never holds quick ones behind it, and the outcomes
  come back in task order.

Determinism: the task list is built config-major/size-minor exactly like
the sequential loop, ``imap`` yields in that order, and each point's
simulation is seeded by its own testbed — so the merged ResultSet
serializes byte-identically to the sequential one at any worker count.
A task must be picklable to cross the process boundary: points are
``functools.partial`` objects over module-level functions, and a lambda
or closure point fails the sweep rather than run somewhere else.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Iterator, Mapping, Sequence

#: environment variable consulted when no explicit worker count is given
WORKERS_ENV = "REPRO_BENCH_WORKERS"


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


def measure_point(task: tuple) -> tuple[float, dict | None]:
    """Run one ``(fn, size, spec)`` point; returns ``(latency_us,
    capture)``.  Module-level so the pool can import it under the
    ``spawn`` start method.

    A ``(trace, max_events)`` ``spec`` runs the point under its own
    observation context (:mod:`repro.obs.capture`) and the serialized
    capture rides back with the measurement, so the sweep can merge every
    point's capture in deterministic sweep order; with ``spec=None`` the
    capture is ``None``.
    """
    fn, size, spec = task
    if spec is None:
        return fn(size), None
    from repro.obs import capture as obs_capture

    trace, max_events = spec
    with obs_capture.observe(trace=trace, max_events=max_events) as obs:
        latency = fn(size)
    return latency, obs.serialize()


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


def imap_points(tasks: Sequence[tuple], workers: int) -> Iterator[tuple]:
    """Measure :func:`measure_point` tasks on the persistent pool; yields
    the outcomes in task order as they complete.

    A task that cannot be pickled raises its pickling error when its
    outcome is reached.
    """
    _pool_stats["dispatched"] += len(tasks)
    return get_pool(workers).imap(measure_point, tasks)
