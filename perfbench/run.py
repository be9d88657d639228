"""Cold end-to-end and per-layer benchmark of the simulator.

Run from the root of a checkout (needs ``src/repro``)::

    python3 perfbench/run.py --workload table9-cold --seed 0 \
        --seconds 30 --trace 0

For ``--seconds`` it starts fresh processes (``child.py``) one after the
other, so every timing includes imports, table construction and lazy
row building, and every process has its own peak RSS.  Each process
checks its simulated outputs against ``golden.json``; a mismatch or an
exception makes the run failed and its timings are discarded.

``--trace 0`` reports the end-to-end metrics, medians over the runs.
A shared host can change speed by up to 1.4x for tens of seconds at a
time (measured on a 2-vCPU VM), which moves every plain timing of a run
together.  So before and after each process the parent times a fixed
reference task that does not touch the simulator (dict, list and numpy
work, ``reference_seconds``), and the timings are reported in units of
that task's time (unit ``ref``): a change to the simulator moves them,
a change of machine speed cancels out.

* ``wall_ref``    — process start to checked results;
* ``setup_s``     — process start (imports included) to the first
  simulated cycle, in seconds of a nominal host on which the reference
  task takes ``REF_NOMINAL_S``: measured seconds x ``REF_NOMINAL_S /
  ref``, so that set-up time too is rid of the host's drift;
* ``node_cycles_per_ref`` / ``cycles_per_ref`` — nodes x cycles and
  cycles stepped per reference time (summed over the fault sweep's
  cells);
* ``tick_ref_p50`` / ``tick_ref_p90`` — wall time per tick, pooled over
  the runs: the service's 20-cycle tick on serve-mesh, one cycle on
  table9-cold and hotspot-n12, one sweep cell on faults-sweep;
* ``peak_rss_mb`` — peak resident set (``VmHWM``) of the run's process.

The same figures in plain seconds (``wall_s``, ``setup_plain_s``,
``node_cycles_per_s``, ``cycles_per_s``, ``tick_ms_p50``/``p90``) and
the reference time are printed and recorded alongside.  The metric names
and units are read from ``BENCHMARK.json``.

``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics (medians over traced runs; ``predictions.json`` says
which end-to-end metric each should move)
plus ``trace.overhead_frac``, traced over untraced median ``wall_s``
minus one.  Failed runs and failed ``/metrics`` scrapes are counted in
``failed``; ``failed_frac`` is printed with the metrics.

The last stdout line is the JSON result; the full record (environment,
every run) goes to ``.perfbench_out/`` and the last traced run's spans
to ``.perfbench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
OUT_DIR = Path(".perfbench_out")
CHILD_TIMEOUT_S = 100
STRIPPED_ENV = (
    "REPRO_ENGINE",
    "REPRO_SHARDS",
    "REPRO_SCALE",
    "REPRO_NS",
    "REPRO_SEED",
)
WORKLOAD_NAMES = ("table9-cold", "hotspot-n12", "serve-mesh", "faults-sweep")
#: Median time of :func:`reference_seconds` on the 2-vCPU host the
#: bounds were set on (Python 3.11, numpy 1.26); ``setup_s`` is in
#: seconds of a host this fast.
REF_NOMINAL_S = 0.57

PLAIN_UNITS = {
    "ref_s": "s",
    "wall_s": "s",
    "setup_plain_s": "s",
    "node_cycles_per_s": "1/s",
    "cycles_per_s": "1/s",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
}


def reference_seconds() -> float:
    """Time of a fixed task that shares no code with the simulator.

    Dict building and lookups, list sorting and numpy sorts and gathers:
    the kinds of work the simulator's time goes to, so a slower host
    slows it by about as much.
    """
    import numpy as np

    t0 = time.perf_counter()
    keys = [(i, i * 7 % 1013, i & 15) for i in range(300_000)]
    table = dict(zip(keys, range(len(keys))))
    total = sum(table.get(key, 0) for key in keys)
    values = np.random.default_rng(1).integers(0, 1 << 20, size=2_000_000)
    for _ in range(5):
        order = np.sort(values)
        total += int(values[order % values.size][:10].sum())
    rows = [[j, j + 1, j + 2] for j in range(200_000)]
    rows.sort(key=lambda row: -row[0])
    return time.perf_counter() - t0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(BENCHMARK_JSON) as fh:
        metrics = json.load(fh)[kind]
    return {m["name"]: m["unit"] for m in metrics}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, traced: bool, env: dict, spans: Path | None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--trace", str(int(traced)),
        "--golden", str(args.golden),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": "timed out"}
    t_exit = time.perf_counter()
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"ok": False, "error": proc.stderr[-2000:]}
    rec["traced"] = traced
    rec["t_spawn"] = t_spawn
    rec["t_exit"] = t_exit
    if proc.returncode != 0:
        rec["ok"] = False
        rec.setdefault("error", f"exit code {proc.returncode}")
    if rec["ok"] and rec.get("wrappers_left"):
        rec["ok"] = False
        rec["error"] = f"{rec['wrappers_left']} wrappers left installed"
    return rec


def measure(args) -> list[dict]:
    """Runs processes until the time budget is spent (at least one each).

    Untraced runs are bracketed by reference timings; each run's
    ``ref_s`` is the mean of the one before and the one after it.
    """
    env = child_env()
    kinds = [False, True] if args.trace else [False]
    spans = OUT_DIR / f"spans-{args.workload}.npz"
    start = time.perf_counter()
    runs: list[dict] = []
    longest = {k: 0.0 for k in kinds}
    ref_before = None if args.trace else reference_seconds()
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        elapsed = time.perf_counter() - start
        if i >= len(kinds) and elapsed + longest[traced] > args.seconds:
            break
        rec = run_child(args, traced, env, spans if traced else None)
        if ref_before is not None:
            ref_after = reference_seconds()
            rec["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        took = time.perf_counter() - start - elapsed
        longest[traced] = max(longest[traced], took)
        runs.append(rec)
        i += 1
    return runs


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    """(metrics in reference units, the same figures in plain units)."""
    med = statistics.median
    walls = [(r["t_done"] - r["t_spawn"], r["ref_s"]) for r in runs]
    setups = [(r["t_first_step"] - r["t_spawn"], r["ref_s"]) for r in runs]
    ticks = [(t, r["ref_s"]) for r in runs for t in r["ticks"]]
    metrics = {
        "wall_ref": med(w / ref for w, ref in walls),
        "setup_s": med(s * REF_NOMINAL_S / ref for s, ref in setups),
        "node_cycles_per_ref": med(
            r["node_cycles"] * r["ref_s"] / r["run_s"] for r in runs
        ),
        "cycles_per_ref": med(
            r["cycles"] * r["ref_s"] / r["run_s"] for r in runs
        ),
        "tick_ref_p50": quantile([t / ref for t, ref in ticks], 50),
        "tick_ref_p90": quantile([t / ref for t, ref in ticks], 90),
        "peak_rss_mb": med(r["rss_mb"] for r in runs),
    }
    plain = {
        "ref_s": med(r["ref_s"] for r in runs),
        "wall_s": med(w for w, _ in walls),
        "setup_plain_s": med(s for s, _ in setups),
        "node_cycles_per_s": med(r["node_cycles"] / r["run_s"] for r in runs),
        "cycles_per_s": med(r["cycles"] / r["run_s"] for r in runs),
        "tick_ms_p50": 1000 * quantile([t for t, _ in ticks], 50),
        "tick_ms_p90": 1000 * quantile([t for t, _ in ticks], 90),
    }
    return metrics, plain


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"]
    out = {
        k: statistics.median(r["layers"][k] for r in traced) for k in names
    }
    wall = statistics.median(r["t_done"] - r["t_spawn"] for r in traced)
    base = statistics.median(r["t_done"] - r["t_spawn"] for r in untraced)
    out["trace.overhead_frac"] = wall / base - 1.0
    return out


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument(
        "--golden",
        type=Path,
        default=HERE / "golden.json",
        help="golden outputs to check against (the self-test swaps in "
        "a deliberately wrong copy)",
    )
    args = ap.parse_args(argv)
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a checkout (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    if not BENCHMARK_JSON.is_file() or not args.golden.is_file():
        print(
            f"perfbench: needs {BENCHMARK_JSON} and {args.golden}",
            file=sys.stderr,
        )
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    runs = measure(args)
    passed = [r for r in runs if r["ok"]]
    untraced = [r for r in passed if not r["traced"]]
    traced = [r for r in passed if r["traced"]]
    scrapes = sum(r.get("scrapes", 0) for r in runs)
    scrape_failures = sum(r.get("scrape_failures", 0) for r in runs)
    attempted = len(runs) + scrapes
    failed = len(runs) - len(passed) + scrape_failures
    for r in runs:
        if not r["ok"]:
            print(
                f"failed run: {r.get('error') or r.get('mismatch')}",
                file=sys.stderr,
            )

    plain: dict[str, float] = {}
    if args.trace:
        units = metric_units("per_layer")
        values = per_layer(traced, untraced) if traced and untraced else {}
    else:
        units = metric_units("end_to_end")
        values, plain = end_to_end(untraced) if untraced else ({}, {})
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "env": {
            "engines": sorted({e for r in passed for e in r["engines"]}),
            "host_cpus": len(os.sched_getaffinity(0)),
            "python": passed[0]["python"] if passed else None,
            "numpy": passed[0]["numpy"] if passed else None,
            "git_sha": git_sha(),
        },
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "plain": plain,
        "runs": [
            {k: v for k, v in r.items() if k != "ticks"} for r in runs
        ],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    env = record["env"]
    print(
        f"{args.workload} seed={args.seed} "
        f"input_seed={runs[0].get('input_seed')} runs={len(runs)} "
        f"(traced {len(traced)}) engines={','.join(env['engines'])} "
        f"host_cpus={env['host_cpus']} python={env['python']} "
        f"numpy={env['numpy']} git={env['git_sha']}"
    )
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in plain.items():
        print(f"  ({name} = {value:.6g} {PLAIN_UNITS[name]})")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
