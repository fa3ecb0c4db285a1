"""Integration: every figure regenerator runs and its claims hold.

These use the quick sweeps; the benchmarks/ directory runs the full ones.
"""

import pytest

from repro.bench import figures
from repro.bench.parallel import WORKERS_ENV


@pytest.mark.parametrize("name", sorted(figures.FIGURES))
def test_figure_claims_hold_quick(name):
    results, checks = figures.FIGURES[name](True)
    assert len(results) > 0
    assert not results.missing_points(), "figure sweep left grid holes"
    failed = [
        f"{c.claim_id}: expected {c.expected}±{c.tolerance}, measured {m:.3g}"
        for c, m in checks
        if not c.check(m)
    ]
    assert not failed, failed


def test_render_produces_table_and_verdicts(capsys):
    figures.render("lockcost", quick=True)
    out = capsys.readouterr().out
    assert "spin cycle" in out
    assert "[OK ]" in out


def test_render_unknown_figure():
    with pytest.raises(KeyError):
        figures.render("fig42")


def test_main_cli(capsys):
    assert figures.main(["lockcost", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "§3.1" in out or "spin" in out.lower()


@pytest.mark.parametrize(
    "flag, env", [(["--workers", "2"], None), ([], "2")], ids=["flag", "env"]
)
def test_main_cli_notes_worker_count(capsys, monkeypatch, flag, env):
    """The footnote names the worker count whether it came from the
    flag or from the environment."""
    if env is not None:
        monkeypatch.setenv(WORKERS_ENV, env)
    assert figures.main(["fig3", "--quick", *flag]) == 0
    assert "(sweep: 2 worker processes; pool: " in capsys.readouterr().out


def test_titles_cover_all_figures():
    assert set(figures.TITLES) == set(figures.FIGURES)
