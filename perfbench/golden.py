"""Regenerate ``golden.json``: the simulated outputs of every input seed.

Run from the root of a checkout::

    python3 perfbench/golden.py

It regenerates both sizes (``full`` and ``smoke``) for all 16 input
seeds.  Each (workload, seed) runs in its own process on the default
engine, two at a time.  The default seed (``--seed 0``) is also run on
``engine="compiled"``,
which is packet-identical to the reference engine (``"reference"`` for
the fault sweep, whose default engine already is the compiled one); any
difference aborts without writing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import HERE, WORKLOAD_NAMES, child_env
from workloads import input_seed

SEEDS = range(16)
SIZES = ("full", "smoke")
CHECK_ENGINE = {"faults-sweep": "reference"}


def outputs(workload: str, seed: int, size: str, engine=None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
    ]
    if engine:
        cmd += ["--engine", engine]
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=600
    )
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not rec["ok"]:
        raise SystemExit(f"{workload} seed {seed}: {rec.get('error')}")
    return rec["outputs"]


def main() -> int:
    path = HERE / "golden.json"
    jobs = [(w, s, z) for z in SIZES for w in WORKLOAD_NAMES for s in SEEDS]
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(lambda job: outputs(*job), jobs))
        checks = list(
            pool.map(
                lambda job: (
                    job,
                    outputs(*job, engine=CHECK_ENGINE.get(job[0], "compiled")),
                ),
                [(w, 0, z) for z in SIZES for w in WORKLOAD_NAMES],
            )
        )
    fresh: dict = {}
    for (w, s, z), out in zip(jobs, results):
        fresh.setdefault(z, {}).setdefault(w, {})[str(input_seed(s))] = out
    for (w, s, z), out in checks:
        if out != fresh[z][w][str(input_seed(s))]:
            raise SystemExit(f"{w} ({z}): compiled engine disagrees")
        engine = CHECK_ENGINE.get(w, "compiled")
        print(f"{w} ({z}) seed {input_seed(s)}: {engine} engine agrees")
    path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
