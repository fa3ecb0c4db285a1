"""Microbenchmarks of the locking primitives themselves (§3.1 text).

E7: the paper measures 70 ns per spinlock acquire/release cycle and counts
two cycles per message under coarse-grain locking.  These functions measure
the cycle on the simulated machine and count the actual lock traffic of one
message under each policy.
"""

from __future__ import annotations

from repro.core.session import build_testbed
from repro.sim import Acquire, Delay, Engine, Machine, Release, SpinLock, quad_xeon_x5460


def measure_spin_cycle_ns(cycles: int = 1_000) -> float:
    """Average cost of an uncontended acquire/release cycle."""
    if cycles <= 0:
        raise ValueError("cycles must be > 0")
    engine = Engine()
    machine = Machine(engine, quad_xeon_x5460())
    lock = SpinLock("bench", costs=machine.costs)

    def worker():
        for _ in range(cycles):
            yield Acquire(lock)
            yield Release(lock)

    t = machine.scheduler.spawn(worker(), name="w", core=0)
    engine.run_until_done(t)
    return engine.now / cycles


def lock_cycles_per_message(policy: str) -> float:
    """Spinlock acquisitions on one message's path (the paper's 'held and
    released twice' accounting for coarse grain; three points for fine).

    One message is sent while the receiver sleeps; the receiver then runs
    exactly one progress pass to ingest it — so every counted acquisition
    belongs to the message path (no busy-wait poll noise).
    """
    bed = build_testbed(policy=policy)

    def sender():
        lib = bed.lib(0)
        req = yield from lib.isend(1, 3, 8)
        yield from lib.wait(req)

    def receiver():
        lib = bed.lib(1)
        req = yield from lib.irecv(0, 3, 8)
        yield Delay(50_000)  # message is in the NIC ring by now
        yield from lib.progress()
        assert req.done

    ts = bed.machine(0).scheduler.spawn(sender(), name="s", core=0, bound=True)
    tr = bed.machine(1).scheduler.spawn(receiver(), name="r", core=0, bound=True)
    bed.run_until_done(ts, tr)
    acquisitions = sum(
        lock.acquisitions
        for lib in bed.libs
        for lock in lib.policy.lock_objects()
    )
    return float(acquisitions)
