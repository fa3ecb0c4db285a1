"""End-to-end tests of ``python -m repro.workloads``."""

import json

import pytest

from repro.bench.parallel import WORKERS_ENV
from repro.obs.chrometrace import validate_trace
from repro.util.records import ResultSet
from repro.workloads.cli import main


def test_list_scenarios(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("stencil", "bursty", "fanin", "pipeline", "collectives"):
        assert name in out


def test_unknown_scenario_fails_fast():
    with pytest.raises(KeyError, match="unknown scenario"):
        main(["--scenario", "warpdrive", "--quick", "--no-save"])


def test_single_scenario_no_save(capsys):
    assert main(["--scenario", "fanin", "--quick", "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "Workload: fanin" in out
    assert "mechanism ranking" in out
    assert "wrote:" not in out
    assert "INCOMPLETE" not in out


def test_saves_json_csv_and_matrix(tmp_path, capsys):
    out_dir = str(tmp_path / "wl")
    assert main(
        ["--scenario", "fanin", "--quick", "--out-dir", out_dir]
    ) == 0
    capsys.readouterr()

    results = ResultSet.load(str(tmp_path / "wl" / "fanin.json"))
    assert len(results) > 0
    assert results.missing_points() == []

    with open(str(tmp_path / "wl" / "fanin.csv"), encoding="utf-8") as fh:
        assert fh.read() == results.to_csv()

    with open(str(tmp_path / "wl" / "matrix.txt"), encoding="utf-8") as fh:
        assert "mechanism ranking" in fh.read()


def test_deterministic_output_files(tmp_path, capsys):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out_dir in dirs:
        assert main(
            ["--scenario", "fanin", "--quick", "--seed", "7",
             "--out-dir", out_dir, "--workers", "2"]
        ) == 0
    capsys.readouterr()
    blobs = []
    for out_dir in dirs:
        with open(f"{out_dir}/fanin.json", "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "flag, env", [(["--workers", "2"], None), ([], "2")], ids=["flag", "env"]
)
def test_note_reports_worker_count(capsys, monkeypatch, flag, env):
    """The footnote names the worker count whether it came from the
    flag or from the environment."""
    if env is not None:
        monkeypatch.setenv(WORKERS_ENV, env)
    assert main(["--scenario", "fanin", "--quick", "--no-save", *flag]) == 0
    assert "(sweep: 2 worker processes; pool: " in capsys.readouterr().out


@pytest.mark.slow
def test_trace_and_metrics(tmp_path, capsys):
    trace_path = str(tmp_path / "wl-trace.json")
    assert main(
        ["--scenario", "fanin", "--quick", "--no-save",
         "--trace", trace_path, "--metrics"]
    ) == 0
    out = capsys.readouterr().out
    assert "trace:" in out

    with open(trace_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert validate_trace(doc) == []
    assert doc["traceEvents"]
