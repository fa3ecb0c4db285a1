"""Integration: every figure regenerator runs and its claims hold.

These use the quick sweeps; the benchmarks/ directory runs the full ones.
"""

import pytest

from repro.bench import figures
from repro.bench.parallel import WORKERS_ENV

#: SHA-256 of every quick figure's ResultSet (``ResultSet.digest``); the
#: same values are pinned as the ``figure:*`` references of the repo
#: benchmark, so any change to simulated behaviour shows here first
QUICK_DIGESTS = {
    "decompose": "325e9cd04bdfdc5115e66c59730f30bc3243c14a769dc6e9c1ad6ea812552ae5",
    "dedicated-core": "277da8639f962b167b35667929eb20f6d278c2a5c80a79197fc16e33b56842d0",
    "fig3": "982855684400e57ba61667d8ee1ba42dd19d628b01fd46039a97c0f78aa5a6b1",
    "fig5": "6cc8dfa80ff48f257186d3a1b868ea7b445d6fff65186f53d9acda9f38f930ea",
    "fig6": "fab90f3c72c6d1812c0d97d85be3d0e392305ac15b6b59d21e07d008f7eeb631",
    "fig7": "480d6bdf2196d8e7a32d4365b74b3d266d4dd77c0acc4819b2192d0cae353f61",
    "fig8": "89cbc2e79a3a7af46055f6378eeb76b003e487207cb1caeb31115bc3d2e955a2",
    "fig8b": "c784b019e0f7f399d04be04aa74b615c8737d222b1331122f95b0a791ae4fcc8",
    "fig9": "6bd1db5037e46ae46c2749d0d79071ab4f5957d657097446198b69006b6a212b",
    "fixed-spin": "abda442632ebb6e2b14ad96ac6b0b457415384bb70b96f0582918e679c268a5d",
    "lockcost": "a3e9bd52ccc65889bcf1540722b55ccf6baaafa8c49ac4c28c8cfc2f2755e401",
}


@pytest.mark.parametrize("name", sorted(figures.FIGURES))
def test_figure_claims_hold_quick(name):
    results, checks = figures.FIGURES[name](True)
    assert len(results) > 0
    assert results.digest() == QUICK_DIGESTS[name], "simulated results moved"
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
