"""Rendering benchmark results the way the paper's figures read.

One figure becomes one ASCII table (sizes down, configurations across) plus
a block of claim verdicts comparing the measured offsets/ratios against
:mod:`repro.bench.paper`.
"""

from __future__ import annotations

from repro.bench.paper import PaperClaim
from repro.util.records import ResultSet
from repro.util.tables import render_table
from repro.util.units import format_size


def figure_table(results: ResultSet, *, title: str) -> str:
    """Sizes x configurations latency table (µs), like a figure's data.

    Grid holes (a partially failed sweep) render as ``-`` **and** raise a
    loud footnote with the exact missing cells — a partial figure must
    never read like a complete one.  The hole count itself is available to
    harnesses via :meth:`~repro.util.records.ResultSet.missing_points`.
    """
    configs = results.configs()
    if not configs:
        raise ValueError("empty result set")
    headers = ["size"] + list(configs)
    rows = []
    for size in results.sizes():
        row: list[object] = [format_size(size)]
        for config in configs:
            try:
                row.append(results.point(config, size))
            except KeyError:
                row.append("-")
        rows.append(row)
    text = render_table(headers, rows, title=title)
    missing = results.missing_points()
    if missing:
        shown = ", ".join(
            f"{config}@{format_size(size)}" for config, size in missing[:8]
        )
        if len(missing) > 8:
            shown += ", ..."
        text += (
            f"\n!! INCOMPLETE SWEEP: {len(missing)} missing point(s): {shown}"
        )
    return text


def verdict_block(checks: list[tuple[PaperClaim, float]]) -> str:
    """One verdict line per (claim, measured value) pair."""
    return "\n".join(claim.verdict(measured) for claim, measured in checks)


def print_figure(
    results: ResultSet,
    *,
    title: str,
    checks: list[tuple[PaperClaim, float]] | None = None,
    note: str | None = None,
) -> str:
    """Render (and print) a full figure report; returns the text.

    ``note`` is a free-form provenance line (e.g. the sweep's worker
    count) appended after the table — kept out of the ResultSet itself so
    parallel and sequential runs stay byte-identical on disk.
    """
    parts = [figure_table(results, title=title)]
    if note:
        parts.append(f"({note})")
    if checks:
        parts.append("")
        parts.append(verdict_block(checks))
    text = "\n".join(parts)
    print(text)
    return text
