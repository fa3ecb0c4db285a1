"""Latency decomposition: where one message's nanoseconds go.

The paper's method statement: "we aim at decomposing each step of thread
support and we analyze precisely the cost and the benefits of each part"
(§1).  This module runs one instrumented message through a testbed and
splits its one-way latency into the stages the request timeline records:

* **submit** — ``nm_isend`` entry to NIC injection (collect + optimizer +
  locks + host send overheads);
* **transit** — injection to rx-DMA completion at the receiving NIC
  (NIC engine occupancy + wire + rx gap);
* **detection** — DMA completion to the receiver's matching (polling
  quantisation + poll cost + locks);
* **delivery** — matching to receive-request completion (payload
  bookkeeping, completion firing).

Comparing decompositions across locking policies shows exactly which stage
each policy taxes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.session import TestBed, build_testbed
from repro.core.waiting import BusyWait
from repro.util.tables import render_table

STAGES = ("submit", "transit", "detection", "delivery")


@dataclass(frozen=True)
class Decomposition:
    """One message's stage breakdown (ns)."""

    policy: str
    size: int
    submit: int
    transit: int
    detection: int
    delivery: int

    @property
    def total(self) -> int:
        return self.submit + self.transit + self.detection + self.delivery

    def as_row(self) -> list:
        return [
            self.policy,
            self.submit,
            self.transit,
            self.detection,
            self.delivery,
            self.total,
        ]


def decompose_message(
    policy: str = "none",
    size: int = 8,
    *,
    bed: TestBed | None = None,
    warmup_messages: int = 2,
) -> Decomposition:
    """Send one message 0→1 (after warmup) and decompose its latency."""
    bed = bed or build_testbed(policy=policy)
    state: dict = {}
    total = warmup_messages + 1

    def sender():
        lib = bed.lib(0)
        for i in range(total):
            req = yield from lib.isend(1, 30 + i, size)
            yield from lib.wait(req, BusyWait())
            state[f"send{i}"] = req

    def receiver():
        lib = bed.lib(1)
        for i in range(total):
            req = yield from lib.irecv(0, 30 + i, size)
            yield from lib.wait(req, BusyWait())
            state[f"recv{i}"] = req

    ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0, bound=True)
    tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0, bound=True)
    bed.run_until_done(ts, tr)

    sreq = state[f"send{warmup_messages}"]
    rreq = state[f"recv{warmup_messages}"]
    t = {**sreq.timeline, **{f"rx_{k}": v for k, v in rreq.timeline.items()}}
    for needed in ("submitted", "injected", "rx_arrived", "rx_matched", "rx_completed"):
        if needed not in t:
            raise RuntimeError(f"timeline missing {needed!r}: {t}")
    return Decomposition(
        policy=policy,
        size=size,
        submit=t["injected"] - t["submitted"],
        transit=t["rx_arrived"] - t["injected"],
        detection=t["rx_matched"] - t["rx_arrived"],
        delivery=t["rx_completed"] - t["rx_matched"],
    )


def decomposition_table(size: int = 8, policies=("none", "coarse", "fine")) -> str:
    """Figure-style table: stage costs per policy for one message size."""
    rows = [decompose_message(policy, size).as_row() for policy in policies]
    return render_table(
        ["policy", "submit", "transit", "detection", "delivery", "total"],
        rows,
        title=f"One-way latency decomposition, {size} B message (ns)",
    )
