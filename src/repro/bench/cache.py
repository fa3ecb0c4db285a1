"""Content-addressed, on-disk cache of sweep points.

The figure and workload suites re-simulate every (config, size) point on
every invocation even when nothing changed — and a sweep point is a pure
function of the simulator source, the point function (with its bound
arguments), the benchmark config and the message size.  This module
fingerprints exactly those inputs into a SHA-256 key and stores the
measured latency (plus the point's serialized observation blob, when one
was captured) under ``results/.cache/``, so a warm re-run replays every
unchanged point instead of simulating it.

Key material, in order:

* the **package digest** — a combined SHA-256 over every ``*.py`` module
  of the installed ``repro`` package, so *any* source edit invalidates
  every entry (the conservative rule: simulated latencies may depend on
  any layer);
* the **runtime versions** — Python ``major.minor`` and numpy's version:
  :mod:`repro.sim.rng` draws from numpy ``Generator`` streams, which
  numpy does not promise to keep stable across releases;
* the **point-function fingerprint** — module + qualname for plain
  functions, recursively expanded ``functools.partial`` args/keywords
  (pickled), with embedded :class:`~repro.bench.config.BenchConfig`
  values normalized so the sibling size list never splits keys;
* the **sweep config** (iterations, warmup, seed, jitter, time limit —
  *not* ``sizes``), the experiment id, the config label and the
  **message size**;
* the **observation spec** (trace flag + ring capacity) when a capture
  must ride along — entries recorded without a capture never satisfy an
  observed run.

Entries live one-per-file under ``objects/<k[:2]>/<key>.pkl``; the key
is the only index.  A corrupted entry is discarded *loudly*
(``RuntimeWarning`` + invalidation counter), never served.

Opt-outs: ``REPRO_BENCH_CACHE=0`` (environment) or ``--no-cache`` on the
figure/workload CLIs; ``REPRO_BENCH_CACHE_DIR`` relocates the store.
Hit/miss/invalidation counters accumulate process-wide (:func:`stats`)
and every sweep report footnote prints the per-figure delta.  Inspect or
wipe the store with ``python -m repro.bench.cache stats|clear``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import sys
import warnings
from pathlib import Path
from typing import Any

#: set to ``0``/``false``/``no``/``off`` to disable the cache entirely
CACHE_ENV = "REPRO_BENCH_CACHE"

#: overrides the on-disk location (default ``results/.cache``)
CACHE_DIR_ENV = "REPRO_BENCH_CACHE_DIR"

#: default store location, relative to the working directory
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")

#: bump to orphan every existing entry after an incompatible layout change
ENTRY_FORMAT = 1


def enabled(flag: bool | None = None) -> bool:
    """Resolve whether caching is on.

    An explicit ``flag`` (e.g. a CLI ``--no-cache``) wins; otherwise the
    ``REPRO_BENCH_CACHE`` environment variable decides (default: on).
    """
    if flag is not None:
        return flag
    return os.environ.get(CACHE_ENV, "1").strip().lower() not in (
        "0", "false", "no", "off",
    )


def cache_dir() -> Path:
    """The active store directory (``REPRO_BENCH_CACHE_DIR`` or default)."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


# -- statistics ---------------------------------------------------------------


@dataclasses.dataclass
class CacheStats:
    """Monotonic process-wide counters (snapshot via :func:`stats`)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counter difference since an ``earlier`` snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
            invalidations=self.invalidations - earlier.invalidations,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "hit_ratio": round(self.hit_ratio(), 4),
        }


_stats = CacheStats()


def stats() -> CacheStats:
    """A snapshot of the process-wide counters."""
    return dataclasses.replace(_stats)


def reset_stats() -> None:
    """Zero the process-wide counters (test isolation)."""
    global _stats
    _stats = CacheStats()


# -- package digest -----------------------------------------------------------

_package_digest_memo: str | None = None


def module_digests() -> dict[str, str]:
    """Per-module SHA-256 of every ``*.py`` file in the ``repro`` package,
    keyed by package-relative POSIX path, sorted."""
    import repro

    root = Path(repro.__file__).resolve().parent
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*.py"))
    }


def package_digest() -> str:
    """Combined digest over :func:`module_digests`, memoized per process.

    Any source edit anywhere in the package changes this value and thereby
    invalidates every cached point — the conservative invalidation rule.
    """
    global _package_digest_memo
    if _package_digest_memo is None:
        h = hashlib.sha256()
        for rel, digest in module_digests().items():
            h.update(rel.encode("utf-8"))
            h.update(b"\0")
            h.update(digest.encode("ascii"))
            h.update(b"\n")
        _package_digest_memo = h.hexdigest()
    return _package_digest_memo


# -- fingerprinting -----------------------------------------------------------


def _fingerprint_value(value: Any) -> Any:
    """Stable, picklable stand-in for one bound argument.

    :class:`~repro.bench.config.BenchConfig` values are normalized so
    that the sibling size list never splits keys.
    """
    from repro.bench.config import BenchConfig

    if isinstance(value, BenchConfig):
        return ("BenchConfig", _normalize_config(value))
    return pickle.dumps(value, protocol=4)


def _normalize_config(cfg: Any) -> tuple:
    """The key-relevant fields of a BenchConfig (all but ``sizes``),
    sorted by name."""
    return tuple(
        sorted(
            (field.name, getattr(cfg, field.name))
            for field in dataclasses.fields(cfg)
            if field.name != "sizes"
        )
    )


def runtime_versions() -> tuple[str, str]:
    """Python ``major.minor`` and ``numpy.__version__``, part of every key."""
    import numpy

    return f"{sys.version_info[0]}.{sys.version_info[1]}", numpy.__version__


def _fingerprint_fn(fn: Any) -> Any:
    """Structural identity of a point function.

    Raises when the function cannot be attested (lambdas, closures): such
    points are simply not cacheable.
    """
    if isinstance(fn, functools.partial):
        return (
            "partial",
            _fingerprint_fn(fn.func),
            tuple(_fingerprint_value(v) for v in fn.args),
            tuple(
                sorted(
                    (k, _fingerprint_value(v)) for k, v in fn.keywords.items()
                )
            ),
        )
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ValueError(f"point function {fn!r} has no stable identity")
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        # bound method: the instance state is part of the identity
        return ("method", module, qualname, pickle.dumps(owner, protocol=4))
    return ("fn", module, qualname)


def point_key(
    fn: Any,
    *,
    experiment: str,
    config: str,
    size: int,
    cfg: Any,
    obs_spec: tuple | None = None,
) -> str | None:
    """The SHA-256 cache key of one sweep point, or ``None`` when the
    point cannot be fingerprinted (then it is measured every run)."""
    try:
        material = (
            ENTRY_FORMAT,
            package_digest(),
            runtime_versions(),
            _fingerprint_fn(fn),
            experiment,
            config,
            int(size),
            _normalize_config(cfg),
            obs_spec,
        )
        blob = pickle.dumps(material, protocol=4)
    except Exception:
        return None
    return hashlib.sha256(blob).hexdigest()


# -- the store ----------------------------------------------------------------


class PointCache:
    """One content-addressed store directory.

    Only the sweep's parent process reads and writes the store — worker
    processes never touch it — so no cross-process locking is needed and
    hit/miss accounting stays deterministic.
    """

    def __init__(self, root: os.PathLike | str | None = None) -> None:
        self.root = Path(root) if root is not None else cache_dir()

    # the two leading key characters shard the object directory so no
    # single directory accumulates every entry
    def _entry_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    def get(self, key: str, *, need_capture: bool = False) -> dict | None:
        """Load one entry; ``None`` (and a miss) when absent or unusable.

        ``need_capture=True`` refuses entries recorded without an
        observation blob — an observed run must never silently lose its
        trace to a cache recorded blind.  Corrupted entries are deleted
        and reported via ``RuntimeWarning``, never served.
        """
        path = self._entry_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            _stats.misses += 1
            return None
        try:
            entry = pickle.loads(blob)
            if not isinstance(entry, dict) or entry.get("format") != ENTRY_FORMAT:
                raise ValueError("unrecognized entry layout")
            float(entry["latency_us"])
            capture = entry.get("capture")
            if capture is not None:
                caps = capture["captures"]
                if not all(
                    isinstance(c, dict) and "machines" in c for c in caps
                ):
                    raise ValueError("malformed capture snapshot")
        except Exception as exc:
            warnings.warn(
                f"discarding corrupted sweep-cache entry {path}: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            _stats.invalidations += 1
            _stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if need_capture and entry.get("capture") is None:
            _stats.misses += 1
            return None
        _stats.hits += 1
        return entry

    def put(
        self, key: str, *, latency_us: float, capture: dict | None = None
    ) -> None:
        """Store one measured point (atomic rename, parent process only)."""
        entry = {
            "format": ENTRY_FORMAT,
            "latency_us": float(latency_us),
            "capture": capture,
        }
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(pickle.dumps(entry, protocol=4))
        os.replace(tmp, path)
        _stats.stores += 1

    # -- maintenance ----------------------------------------------------------

    def entry_count(self) -> int:
        objects = self.root / "objects"
        return sum(1 for _ in objects.rglob("*.pkl")) if objects.exists() else 0

    def disk_bytes(self) -> int:
        if not self.root.exists():
            return 0
        return sum(
            p.stat().st_size for p in self.root.rglob("*") if p.is_file()
        )

    def clear(self) -> int:
        """Delete the whole store; returns the number of entries removed."""
        import shutil

        removed = self.entry_count()
        if self.root.exists():
            shutil.rmtree(self.root)
        return removed


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench.cache stats|clear``"""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cache",
        description="Inspect or wipe the incremental sweep cache",
    )
    parser.add_argument("command", choices=("stats", "clear"))
    args = parser.parse_args(argv)
    store = PointCache()
    if args.command == "clear":
        removed = store.clear()
        print(f"cleared {removed} entrie(s) from {store.root}")
        return 0
    print(f"cache dir:  {store.root}")
    print(f"enabled:    {enabled()}")
    print(f"entries:    {store.entry_count()}")
    print(f"disk bytes: {store.disk_bytes()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
