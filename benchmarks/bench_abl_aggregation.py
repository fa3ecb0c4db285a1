"""A1 — ablation: the optimization layer's aggregation strategy.

Workload: a burst of small same-peer messages submitted back-to-back with
deferred (NIC-driven) flushing, so several messages accumulate in the
collect layer while the NIC is busy — the situation NewMadeleine's
"coalescing" optimization exists for (§2).
Expected shape: aggregation sends fewer packets and finishes the burst
sooner than the one-packet-per-message default.
"""

from repro.bench.bandwidth import stream
from repro.core import AggregatingStrategy, DefaultStrategy, PacketKind, build_testbed
from repro.pioman import IdleCoreSubmit, attach_pioman, set_offload

BURST = 32
SIZE = 128


def run_burst(strategy_factory) -> tuple[float, int]:
    """Returns (burst makespan in us, DATA packets posted)."""
    bed = build_testbed(policy="fine", strategy_factory=strategy_factory)
    for node in (0, 1):
        attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=[1])
        set_offload(bed.lib(node), IdleCoreSubmit())
    # a window as large as the burst: every send is posted before any wait
    makespan_ns = stream(bed, SIZE, BURST, window=BURST)
    return makespan_ns / 1000, bed.lib(0).packets_posted[PacketKind.DATA]


def test_aggregation_reduces_packets_and_time(benchmark):
    (default_us, default_packets), (agg_us, agg_packets) = benchmark.pedantic(
        lambda: (run_burst(DefaultStrategy), run_burst(AggregatingStrategy)),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nA1 aggregation ablation ({BURST} x {SIZE} B burst):\n"
        f"  default:     {default_packets:3d} packets, {default_us:8.1f} us\n"
        f"  aggregating: {agg_packets:3d} packets, {agg_us:8.1f} us"
    )
    benchmark.extra_info["default_packets"] = default_packets
    benchmark.extra_info["aggregated_packets"] = agg_packets
    assert agg_packets < default_packets
    assert agg_us < default_us
