"""Submission offloading tests (paper §4.2, Fig. 9)."""

import pytest

from repro.bench.config import BenchConfig
from repro.bench.figures import LATENCY_SERIES
from repro.bench.pingpong import Series, run_pingpong
from repro.core import PacketKind
from repro.pioman.offload import TaskletSubmit

#: the Fig. 9 series by offload mode (None: inline submission)
FIG9 = {series.offload: series for series in LATENCY_SERIES["fig9"].values()}


def fig9_pingpong(offload, size, *, iterations, warmup):
    """One Fig. 9 pingpong (polling on core 1); returns the testbed it ran
    on and the result."""
    series = FIG9[offload]
    bed = series.testbed(BenchConfig())
    res = run_pingpong(
        bed,
        size,
        iterations=iterations,
        warmup=warmup,
        wait_factory=series.wait,
        compute_ns=series.compute_ns,
    )
    return bed, res


class TestFactories:
    def test_offload_names(self):
        for offload in ("idle-core", "tasklet"):
            bed = FIG9[offload].testbed(BenchConfig())
            assert bed.lib(0).submit_offload.name == offload
            assert bed.lib(1).submit_offload.name == offload

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            Series("fine", poll_core=1, offload="gpu")
        with pytest.raises(ValueError, match="poll_core"):
            Series("fine", offload="tasklet")

    def test_inline_flags(self):
        # inline submission is the absence of an offload
        bed = FIG9[None].testbed(BenchConfig())
        assert bed.lib(0).submit_offload is None
        assert bed.lib(1).submit_offload is None

    def test_tasklet_bad_core(self):
        with pytest.raises(ValueError):
            TaskletSubmit(target_core=-1)


class TestOffloadCorrectness:
    @pytest.mark.parametrize(
        "mode", [None, "idle-core", "tasklet"], ids=["inline", "idle-core", "tasklet"]
    )
    def test_messages_still_flow(self, mode):
        _, res = fig9_pingpong(mode, 2048, iterations=4, warmup=1)
        assert len(res.rtts_ns) == 4
        assert res.latency_us > 0

    def test_idle_core_submission_happens_on_poll_core(self):
        bed, _ = fig9_pingpong("idle-core", 2048, iterations=4, warmup=1)
        # the application core did not pay the send overheads...
        m = bed.machine(0)
        assert m.cores[1].busy_ns("net") > 0

    def test_tasklets_actually_ran(self):
        bed, _ = fig9_pingpong("tasklet", 2048, iterations=4, warmup=1)
        assert bed.machine(0).tasklets.executed_total >= 4

    def test_rendezvous_sizes_work_offloaded(self):
        bed, res = fig9_pingpong("tasklet", 32 * 1024, iterations=3, warmup=1)
        assert res.latency_us > 0
        assert bed.lib(0).packets_posted[PacketKind.RTS] >= 3


class TestFig9Shape:
    """Ordering and rough offsets: reference < idle-core < tasklet."""

    @staticmethod
    def lat(mode, size):
        return fig9_pingpong(mode, size, iterations=8, warmup=2)[1].latency_ns

    def test_ordering_at_8k(self):
        ref = self.lat(None, 8 * 1024)
        idle = self.lat("idle-core", 8 * 1024)
        tasklet = self.lat("tasklet", 8 * 1024)
        assert ref < idle < tasklet

    def test_tasklet_overhead_about_2us(self):
        """Fig. 9: 'offloading message submission with tasklet introduces
        an overhead of 2 us'."""
        ref = self.lat(None, 16 * 1024)
        tasklet = self.lat("tasklet", 16 * 1024)
        assert tasklet - ref == pytest.approx(2_000, rel=0.6)

    def test_idle_core_overhead_under_1us(self):
        """Fig. 9: 'using idle cores to transmit the data costs 400 ns'."""
        ref = self.lat(None, 16 * 1024)
        idle = self.lat("idle-core", 16 * 1024)
        assert 100 <= idle - ref <= 1_000
