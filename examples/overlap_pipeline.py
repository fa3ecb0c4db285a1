#!/usr/bin/env python3
"""Communication/computation overlap with background progression (§4).

A producer rank streams large (rendezvous) blocks to a consumer while
both sides compute between messages — the workload the paper's §4 is
about: "rendezvous handshakes can be managed by idle cores, allowing to
overlap computation and communication of large messages".

Three configurations are compared:

* **no progression** — the application thread is the only one driving the
  library: every rendezvous handshake waits for the next nm_wait;
* **background progression** — PIOMan polls from an idle core
  (shared-L2 sibling of the app's CPU): handshakes complete during the
  compute phases, overlapping transfer and computation;
* **background + tasklet submission** — additionally offloads message
  submission via tasklets, showing their ~2 us convenience tax (Fig. 9).

Run:  python examples/overlap_pipeline.py
(set REPRO_EXAMPLES_QUICK=1 for the reduced CI-sized run)
"""

import os

from repro.core import BusyWait, build_testbed
from repro.pioman import TaskletSubmit, attach_pioman, set_offload
from repro.sim.process import Delay
from repro.util.tables import render_table

BLOCK_BYTES = 64 * 1024  # rendezvous territory
BLOCKS = 6 if os.environ.get("REPRO_EXAMPLES_QUICK") == "1" else 16
COMPUTE_NS = 30_000  # per-block computation on both sides


def producer(bed, lib, peer):
    for i in range(BLOCKS):
        req = yield from lib.isend(peer, 40 + i, BLOCK_BYTES)
        yield Delay(COMPUTE_NS, "compute")  # produce the next block
        yield from lib.wait(req, BusyWait())


def consumer(bed, lib, peer, done):
    # pre-post every receive: arriving rendezvous handshakes then only
    # need *someone* to answer them — with background progression that
    # happens during the compute phases; without it, only at nm_wait
    reqs = []
    for i in range(BLOCKS):
        req = yield from lib.irecv(peer, 40 + i, BLOCK_BYTES)
        reqs.append(req)
    for req in reqs:
        yield from lib.wait(req, BusyWait())
        yield Delay(COMPUTE_NS, "compute")  # consume the block
    done["at"] = bed.engine.now


def run(config: str) -> float:
    """Returns the pipeline makespan in microseconds."""
    bed = build_testbed(policy="fine")
    if config in ("background", "tasklet"):
        for node in (0, 1):
            attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=[1])
    if config == "tasklet":
        for node in (0, 1):
            set_offload(bed.lib(node), TaskletSubmit(target_core=1))
    done: dict = {}
    tp = bed.machine(0).scheduler.spawn(
        producer(bed, bed.lib(0), 1), name="producer", core=0, bound=True
    )
    tc = bed.machine(1).scheduler.spawn(
        consumer(bed, bed.lib(1), 0, done), name="consumer", core=0, bound=True
    )
    bed.run_until_done(tp, tc)
    return done["at"] / 1000


def main() -> None:
    print(
        f"Streaming {BLOCKS} x {BLOCK_BYTES // 1024} KiB rendezvous blocks with "
        f"{COMPUTE_NS / 1000:.0f} us of compute per block...\n"
    )
    results = []
    for config, label in [
        ("none", "no progression"),
        ("background", "idle-core progression"),
        ("tasklet", "idle-core + tasklet submission"),
    ]:
        makespan = run(config)
        results.append((label, makespan))
    base = results[0][1]
    rows = [
        [label, makespan, base / makespan]
        for label, makespan in results
    ]
    print(
        render_table(
            ["configuration", "makespan (us)", "speedup"],
            rows,
            title="Pipeline makespan",
        )
    )
    print(
        "\nBackground progression lets the rendezvous handshakes (RTS/CTS)\n"
        "complete during the compute phases instead of waiting for the next\n"
        "library call; tasklet submission adds its per-message protocol cost\n"
        "back on top (Fig. 9)."
    )


if __name__ == "__main__":
    main()
