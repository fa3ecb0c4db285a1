"""Benchmark analysis: statistics, constant-overhead extraction and the
per-message latency decomposition."""

from repro.analysis.decompose import Decomposition, decompose_message, decomposition_table
from repro.analysis.fit import OffsetFit, constant_offset, offset_flatness, ratio_series
from repro.analysis.stats import (
    Summary,
    confidence_interval_95,
    speedup,
    summarize,
    trimmed_mean,
)

__all__ = [
    "Decomposition",
    "decompose_message",
    "decomposition_table",
    "OffsetFit",
    "constant_offset",
    "offset_flatness",
    "ratio_series",
    "Summary",
    "confidence_interval_95",
    "speedup",
    "summarize",
    "trimmed_mean",
]
