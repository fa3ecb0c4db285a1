"""Shared utilities: units, result records and table rendering.

These helpers are deliberately dependency-free (stdlib + numpy only) and are
used by every other subpackage.  Nothing in here knows about the simulator or
the communication library.
"""

from repro.util.units import (
    KIB,
    MIB,
    US,
    MS,
    SEC,
    format_ns,
    format_size,
    ns_to_us,
    parse_size,
    us_to_ns,
)
from repro.util.records import ResultRecord, ResultSet
from repro.util.tables import render_table

__all__ = [
    "KIB",
    "MIB",
    "US",
    "MS",
    "SEC",
    "format_ns",
    "format_size",
    "ns_to_us",
    "parse_size",
    "us_to_ns",
    "ResultRecord",
    "ResultSet",
    "render_table",
]
