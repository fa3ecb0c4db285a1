"""Discrete-event simulation substrate: engine, machine, Marcel scheduler.

This package is the stand-in for the paper's hardware testbed and for the
Marcel thread library.  It knows nothing about networks or the
communication library — those live in :mod:`repro.net` and
:mod:`repro.core` and are built on the effect protocol defined here.

Typical setup::

    from repro.sim import Engine, Machine, quad_xeon_x5460

    engine = Engine()
    node = Machine(engine, quad_xeon_x5460(), name="nodeA")
    thread = node.scheduler.spawn(my_generator(), name="app", core=0, bound=True)
    engine.run_until_done(thread)
"""

from repro.sim.costs import SimCosts
from repro.sim.debug import InvariantViolation, check_invariants, check_lock_invariants
from repro.sim.engine import Engine, EventHandle
from repro.sim.errors import (
    SimDeadlock,
    SimError,
    SimProtocolError,
    SimThreadError,
    SimTimeLimit,
)
from repro.sim.machine import BUSY_CATEGORIES, Core, Machine
from repro.sim.process import (
    Acquire,
    Block,
    Delay,
    Effect,
    Release,
    SimGen,
    SimThread,
    Sleep,
    ThreadState,
    TryAcquire,
    WhereAmI,
    WhoAmI,
    YieldCore,
    run_inline,
    sequence,
)
from repro.sim.rng import RngHub
from repro.sim.scheduler import Marcel
from repro.sim.sync import (
    Completion,
    Condition,
    NullLock,
    Semaphore,
    SpinLock,
    with_lock,
)
from repro.sim.tasklet import Tasklet, TaskletEngine, TaskletState
from repro.sim.trace import TraceEvent, Tracer
from repro.sim.timer import TimerSystem
from repro.sim.topology import (
    CacheTopology,
    dual_quad_xeon,
    quad_xeon_x5460,
    single_core,
    uniform,
)

__all__ = [
    "SimCosts",
    "InvariantViolation",
    "check_invariants",
    "check_lock_invariants",
    "TraceEvent",
    "Tracer",
    "Engine",
    "EventHandle",
    "SimDeadlock",
    "SimError",
    "SimProtocolError",
    "SimThreadError",
    "SimTimeLimit",
    "BUSY_CATEGORIES",
    "Core",
    "Machine",
    "Acquire",
    "Block",
    "Delay",
    "Effect",
    "Release",
    "SimGen",
    "SimThread",
    "Sleep",
    "ThreadState",
    "TryAcquire",
    "WhereAmI",
    "WhoAmI",
    "YieldCore",
    "run_inline",
    "sequence",
    "RngHub",
    "Marcel",
    "Completion",
    "Condition",
    "NullLock",
    "Semaphore",
    "SpinLock",
    "with_lock",
    "Tasklet",
    "TaskletEngine",
    "TaskletState",
    "TimerSystem",
    "CacheTopology",
    "dual_quad_xeon",
    "quad_xeon_x5460",
    "single_core",
    "uniform",
]
