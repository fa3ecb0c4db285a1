"""``python -m repro.workloads`` — run workload scenarios, rank mechanisms.

Examples::

    python -m repro.workloads --list
    python -m repro.workloads --scenario stencil --quick
    python -m repro.workloads --scenario all --workers 8
    python -m repro.workloads --scenario bursty --trace wl.json --metrics

Every run emits one ``ResultSet`` per scenario into ``--out-dir``
(default ``results/workloads/``) as JSON *and* CSV, plus the mechanism
matrix report as ``matrix.txt``.  Runs are deterministic: the same
``--seed`` produces byte-identical JSON, with any ``--workers`` count.
"""

from __future__ import annotations

import argparse
import os

from repro.bench.runner import add_session_arguments, session_options, sweep_session
from repro.util.records import ResultSet
from repro.workloads import registry
from repro.workloads.matrix import (
    mechanism_matrix,
    missing_point_count,
    run_scenario,
)


def save_results(
    results_by_scenario: dict[str, ResultSet], report: str, out_dir: str
) -> list[str]:
    """Write per-scenario JSON + CSV and the matrix report; returns the
    written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, results in results_by_scenario.items():
        json_path = os.path.join(out_dir, f"{name}.json")
        csv_path = os.path.join(out_dir, f"{name}.csv")
        results.save(json_path)
        results.save_csv(csv_path)
        written += [json_path, csv_path]
    report_path = os.path.join(out_dir, "matrix.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    written.append(report_path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Application-level workload generator: run scenarios "
        "across the mechanism matrix (locking x waiting x progression)",
    )
    parser.add_argument(
        "--scenario",
        default="all",
        help="scenario name or 'all' (see --list); default: all",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    parser.add_argument("--quick", action="store_true", help="reduced sweep")
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    parser.add_argument(
        "--grid",
        choices=("standard", "full"),
        default="standard",
        help="mechanism grid: standard (8 combos) or full (every valid "
        "locking x waiting x progression combination)",
    )
    add_session_arguments(
        parser,
        trace_help="export a Chrome trace-event JSON covering every "
        "scenario testbed (open at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--out-dir",
        default=os.path.join("results", "workloads"),
        metavar="DIR",
        help="directory for ResultSet JSON/CSV and the matrix report "
        "(default: results/workloads)",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="do not write result files"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in registry.names():
            sc = registry.get(name)
            print(f"{name:12s} {sc.title}")
            print(f"{'':12s}   axis: {sc.axis}; sizes: {sc.sizes}")
        return 0

    names = registry.names() if args.scenario == "all" else [args.scenario]
    for name in names:
        registry.get(name)  # fail fast on typos, before any measuring

    with sweep_session(**session_options(args)) as session:
        results_by_scenario = {
            name: run_scenario(
                name, quick=args.quick, seed=args.seed, grid=args.grid
            )
            for name in names
        }

    report = mechanism_matrix(results_by_scenario)
    print(report)
    note = session.note()
    if note:
        print(f"\n({note})")
    footer = session.report()
    if footer:
        print("\n" + footer)

    if not args.no_save:
        written = save_results(results_by_scenario, report, args.out_dir)
        print("\nwrote:")
        for path in written:
            print(f"  {path}")

    holes = missing_point_count(results_by_scenario)
    if holes:
        print(f"\n!! INCOMPLETE MATRIX: {holes} missing point(s)")
        return 1
    return 0
