"""Rewrite ``perfbench/references.json`` from the current simulator.

    python3 perfbench/record_references.py

Run it only after a deliberate modelling change, and say so in the commit
message: the benchmark fails any run whose outputs differ from these
references, which is how it notices a change in simulated behaviour.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import drivers  # noqa: E402
from measure import Ledger  # noqa: E402
from run import OUT, REFERENCES  # noqa: E402

SEED = 0


def record() -> dict:
    ledger = Ledger()
    _, pingpong_outputs = drivers.pingpong_pass(SEED, ledger)
    _, stencil_outputs = drivers.stencil_pass(SEED, ledger)
    with drivers.fresh_cache(OUT / "tmp"):
        suite = drivers.suite_pass(SEED)
    size = {"sweep.points": suite.cache.misses, "sweep.claims": len(suite.claims)}
    drivers.check_suite(ledger, suite, "suite", size, warm=False)
    if ledger.failed:
        raise SystemExit("the simulator fails its own checks; no references written")
    return {
        "seed": SEED,
        "any_seed": {
            **size,
            **{k: v for k, v in sorted(suite.digests.items()) if k.startswith("figure:")},
        },
        "default_seed": {
            **{f"pingpong-fine.{k}": v for k, v in pingpong_outputs.items()},
            **{f"stencil-pioman.{k}": v for k, v in stencil_outputs.items()},
            **{k: v for k, v in sorted(suite.digests.items()) if k.startswith("scenario:")},
        },
    }


if __name__ == "__main__":
    REFERENCES.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}")
