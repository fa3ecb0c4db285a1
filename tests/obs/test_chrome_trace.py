"""Tests for the Chrome trace-event exporter and its schema validator."""

import json
from functools import partial

from repro.bench.pingpong import Series, latency_point
from repro.bench.config import BenchConfig
from repro.bench.pingpong import run_pingpong
from repro.bench.runner import run_sweep, sweep_session
from repro.core import build_testbed
from repro.obs import build_trace, observe, validate_trace
from repro.obs.chrometrace import KNOWN_PHASES


def _traced_captures(policy="fine", size=64, iterations=4):
    with observe() as obs:
        obs.set_label("test/run")
        bed = build_testbed(policy=policy)
        run_pingpong(bed, size, iterations=iterations, warmup=1)
    return obs


class TestExportedTrace:
    def test_trace_validates(self):
        obs = _traced_captures()
        doc = build_trace(obs.captures())
        assert validate_trace(doc) == []
        assert doc["traceEvents"]

    def test_phases_are_known(self):
        obs = _traced_captures()
        doc = build_trace(obs.captures())
        assert {e["ph"] for e in doc["traceEvents"]} <= KNOWN_PHASES

    def test_one_process_per_machine_with_names(self):
        obs = _traced_captures()
        doc = build_trace(obs.captures())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"test/run:nodeA", "test/run:nodeB"}

    def test_core_tracks_named(self):
        obs = _traced_captures()
        doc = build_trace(obs.captures())
        thread_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "core 0" in thread_names
        assert "blocked" in thread_names

    def test_run_slices_present_and_monotonic_per_track(self):
        obs = _traced_captures()
        doc = build_trace(obs.captures())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices
        last: dict[tuple, float] = {}
        for e in slices:
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(key, 0.0)
            assert e["dur"] >= 0
            last[key] = e["ts"]

    def test_counter_events_carry_runq_depth(self):
        obs = _traced_captures()
        doc = build_trace(obs.captures())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all(e["args"]["depth"] >= 0 for e in counters)

    def test_export_writes_valid_json(self, tmp_path):
        obs = _traced_captures()
        path = tmp_path / "trace.json"
        doc = obs.export_chrome(str(path))
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == doc
        assert validate_trace(on_disk) == []


class TestValidator:
    def test_rejects_non_document(self):
        assert validate_trace([]) != []
        assert validate_trace({"traceEvents": 3}) != []

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 0, "ts": 0}]}
        assert any("unknown phase" in p for p in validate_trace(doc))

    def test_rejects_missing_pid(self):
        doc = {"traceEvents": [{"ph": "X", "tid": 0, "ts": 0, "dur": 1}]}
        assert any("pid" in p for p in validate_trace(doc))

    def test_rejects_negative_ts_and_dur(self):
        bad_ts = {"traceEvents": [{"ph": "i", "pid": 1, "tid": 0, "ts": -1}]}
        assert any("bad ts" in p for p in validate_trace(bad_ts))
        bad_dur = {
            "traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": -5}]
        }
        assert any("bad dur" in p for p in validate_trace(bad_dur))

    def test_rejects_async_without_id(self):
        doc = {"traceEvents": [{"ph": "b", "pid": 1, "tid": 0, "ts": 0}]}
        assert any("without id" in p for p in validate_trace(doc))

    def test_rejects_non_monotonic_track(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "pid": 1, "tid": 0, "ts": 10.0, "dur": 1},
                {"ph": "X", "pid": 1, "tid": 0, "ts": 5.0, "dur": 1},
            ]
        }
        assert any("non-monotonic" in p for p in validate_trace(doc))

    def test_independent_tracks_not_conflated(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "pid": 1, "tid": 0, "ts": 10.0, "dur": 1},
                {"ph": "X", "pid": 1, "tid": 1, "ts": 5.0, "dur": 1},
            ]
        }
        assert validate_trace(doc) == []


class TestParallelTraceDeterminism:
    """A --workers 2 sweep must export the identical trace document."""

    CFG = BenchConfig(iterations=3, warmup=1, sizes=(8, 64), jitter_ns=150)

    def _sweep_trace(self, workers):
        configs = {
            p: partial(latency_point, Series(p), cfg=self.CFG)
            for p in ("none", "fine")
        }
        with observe() as obs, sweep_session(workers=workers):
            results = run_sweep("fig3", configs, self.CFG)
        return results, build_trace(obs.captures())

    def test_parallel_trace_identical_to_sequential(self):
        seq_results, seq_doc = self._sweep_trace(1)
        par_results, par_doc = self._sweep_trace(2)
        assert seq_results.to_json() == par_results.to_json()
        assert validate_trace(par_doc) == []
        assert json.dumps(seq_doc, sort_keys=True) == json.dumps(
            par_doc, sort_keys=True
        )

    def test_parallel_capture_labels_sequential_order(self):
        configs = {
            p: partial(latency_point, Series(p), cfg=self.CFG)
            for p in ("none", "fine")
        }
        with observe() as obs, sweep_session(workers=2):
            run_sweep("fig3", configs, self.CFG)
        labels = [c["label"] for c in obs.captures()]
        assert labels == [
            "fig3/none/8", "fig3/none/64", "fig3/fine/8", "fig3/fine/64",
        ]
