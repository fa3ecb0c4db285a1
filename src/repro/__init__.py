"""repro — reproduction of Trahay, Brunet & Denis,
"An analysis of the impact of multi-threading on communication
performance" (CAC/IPDPS 2009).

The package rebuilds the paper's full software stack on a discrete-event
simulator:

* :mod:`repro.sim` — the machine substrate: engine, cores/cache topology,
  the Marcel-like two-level thread scheduler with hooks, costed
  synchronisation primitives, tasklets, timers;
* :mod:`repro.net` — link models, simulated NICs and drivers for the
  paper's networks (Myri-10G/MX, ConnectX IB, TCP);
* :mod:`repro.core` — NewMadeleine: the three-layer communication library
  with pluggable locking policies and wait strategies;
* :mod:`repro.pioman` — the PIOMan I/O event manager, scheduler-hook
  integration and submission offloading;
* :mod:`repro.madmpi` — the Mad-MPI interface (communicators,
  point-to-point, collectives, thread levels);
* :mod:`repro.bench` / :mod:`repro.analysis` — the harness regenerating
  every figure of the paper, with machine-checked claims.

Quick start::

    from repro.core import build_testbed
    from repro.bench.pingpong import run_pingpong

    bed = build_testbed(policy="fine")         # two quad-core nodes, MX
    result = run_pingpong(bed, size=8)
    print(result.latency_us)

Regenerate a paper figure::

    python -m repro.bench.figures fig3
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
