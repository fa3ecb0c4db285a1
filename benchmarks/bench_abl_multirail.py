"""A2 — ablation: multirail distribution across two NICs.

Workload: one large rendezvous transfer over a testbed with two MX rails
per node pair, with and without the multirail splitting strategy (§2:
"multirail distribution").
Expected shape: splitting across both rails roughly halves the transfer
time of bandwidth-bound messages; small messages are not split.
"""

from repro.bench.bandwidth import stream
from repro.core import DefaultStrategy, MultirailStrategy, build_testbed

SIZE = 512 * 1024


def run_transfer(strategy_factory, rails: int) -> float:
    bed = build_testbed(policy="fine", rails=rails, strategy_factory=strategy_factory)
    return stream(bed, SIZE, messages=1, window=1) / 1000


def test_multirail_speedup(benchmark):
    single, dual = benchmark.pedantic(
        lambda: (
            run_transfer(DefaultStrategy, rails=1),
            run_transfer(MultirailStrategy, rails=2),
        ),
        rounds=1,
        iterations=1,
    )
    speedup = single / dual
    print(
        f"\nA2 multirail ablation ({SIZE // 1024} KiB rendezvous):\n"
        f"  1 rail:  {single:8.1f} us\n"
        f"  2 rails: {dual:8.1f} us  (speedup {speedup:.2f}x)"
    )
    benchmark.extra_info["speedup"] = round(speedup, 3)
    assert speedup > 1.6  # near-2x for a bandwidth-bound transfer
