"""A2 — ablation: multirail distribution across two NICs.

Workload: one large rendezvous transfer over a testbed with two MX rails
per node pair, with and without the multirail splitting strategy (§2:
"multirail distribution").
Expected shape: splitting across both rails roughly halves the transfer
time of bandwidth-bound messages; small messages are not split.
"""

from repro.core import BusyWait, DefaultStrategy, MultirailStrategy, build_testbed

SIZE = 512 * 1024


def run_transfer(strategy_factory, rails: int) -> float:
    bed = build_testbed(policy="fine", rails=rails, strategy_factory=strategy_factory)
    done = {}

    def sender():
        lib = bed.lib(0)
        req = yield from lib.isend(1, 9, SIZE)
        yield from lib.wait(req, BusyWait())

    def receiver():
        lib = bed.lib(1)
        req = yield from lib.irecv(0, 9, SIZE)
        yield from lib.wait(req, BusyWait())
        done["at"] = bed.engine.now

    ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0, bound=True)
    tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0, bound=True)
    bed.run_until_done(ts, tr)
    return done["at"] / 1000


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
