"""Benchmark harness: one regenerator per paper figure/table.

``python -m repro.bench.figures <fig>`` reprints any figure's data with
paper-claim verdicts; the ``benchmarks/`` directory wires the same
functions into pytest-benchmark.  Sweeps fan out to worker processes
with ``--workers N`` / ``REPRO_BENCH_WORKERS`` (see
:mod:`repro.bench.parallel`); results are deterministically identical
to a sequential run.
"""

from repro.bench.config import OVERLAP_SIZES, PAPER_SIZES, BenchConfig
from repro.bench.parallel import WORKERS_ENV, resolve_workers
from repro.bench.pingpong import (
    PingPongResult,
    Series,
    latency_point,
    ping_thread,
    pong_thread,
    run_concurrent_pingpong,
    run_pingpong,
)
from repro.bench.runner import run_sweep

__all__ = [
    "OVERLAP_SIZES",
    "PAPER_SIZES",
    "BenchConfig",
    "PingPongResult",
    "Series",
    "latency_point",
    "ping_thread",
    "pong_thread",
    "run_concurrent_pingpong",
    "run_pingpong",
    "run_sweep",
    "WORKERS_ENV",
    "resolve_workers",
]
