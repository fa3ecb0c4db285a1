"""Set-up probe: one fresh process measuring what each workload builds
before its first timed call.

Prints one JSON object of component times in seconds::

    python3 perfbench/setup_probe.py --seed 0 --scratch .perfbench/tmp

``import_s`` imports every ``repro`` module the benchmark uses; the other
components build the 2-node testbed of ``pingpong-fine``, the 4-node
testbed, PIOMan and Mad-MPI world of ``stencil-pioman``, and the worker
pool and point-cache directory of ``sweep-suite``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: components of each workload's set-up time
SETUP_PARTS = {
    "pingpong-fine": ("import_s", "build_testbed_s"),
    "stencil-pioman": ("import_s", "build_testbed4_s", "attach_pioman_s",
                       "create_world_s"),
    "sweep-suite": ("import_s", "pool_s", "cache_dir_s"),
}


def probe(seed: int, scratch: Path) -> dict[str, float]:
    out: dict[str, float] = {}

    def timed(name: str, fn):
        t0 = time.perf_counter()
        value = fn()
        out[name] = time.perf_counter() - t0
        return value

    def imports():
        from repro.bench import figures, parallel  # noqa: F401
        from repro.core import session  # noqa: F401
        from repro.madmpi import create_world  # noqa: F401
        from repro.pioman import integration  # noqa: F401
        from repro.workloads import matrix, stencil  # noqa: F401

    sys.path.insert(0, str(SRC))
    timed("import_s", imports)
    from repro.bench import parallel
    from repro.core.session import build_testbed
    from repro.core.waiting import PassiveWait
    from repro.madmpi import create_world
    from repro.pioman.integration import attach_pioman

    timed("build_testbed_s", lambda: build_testbed(policy="fine", seed=seed))
    bed = timed("build_testbed4_s", lambda: build_testbed(nodes=4, policy="fine", seed=seed))
    timed("attach_pioman_s", lambda: [
        attach_pioman(bed.machine(n), [bed.lib(n)]) for n in range(4)
    ])
    timed("create_world_s", lambda: create_world(bed, wait_factory=PassiveWait))
    try:
        timed("pool_s", lambda: parallel.get_pool(2))
    finally:
        parallel.shutdown_pool()
    scratch.mkdir(parents=True, exist_ok=True)
    cache_dir = timed("cache_dir_s", lambda: tempfile.mkdtemp(prefix="probe-", dir=scratch))
    shutil.rmtree(cache_dir)
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(probe(args.seed, args.scratch)))
