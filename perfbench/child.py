"""One cold run of one workload, in its own process.

Started by ``run.py`` (and ``golden.py``) from the root of a checkout
with ``PYTHONPATH=src``; prints one JSON record as its last stdout line:
timestamps on the ``perf_counter`` clock (the same clock as the parent
on Linux), simulated outputs, the golden check, peak RSS and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback

from tracing import clock


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def check(outputs: dict, golden: dict | None) -> list[str]:
    """Keys whose value differs from the golden one (all of them if none)."""
    if golden is None:
        return ["<no golden value for this input seed>"]
    keys = sorted(set(outputs) | set(golden))
    return [
        k
        for k in keys
        if canonical(outputs.get(k)) != canonical(golden.get(k))
    ]


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    ``VmHWM`` rather than ``ru_maxrss``: Linux keeps ``ru_maxrss``
    across ``execve``, and a child spawned by ``vfork`` runs on its
    parent's address space until then, so ``ru_maxrss`` would report the
    parent's footprint whenever that is the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--golden", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--engine", default=None)
    args = ap.parse_args(argv)

    from layers import Hooks
    from workloads import SIZES, WORKLOADS, input_seed

    seed = input_seed(args.seed)
    record: dict = {"input_seed": seed}
    params = SIZES[args.workload][args.size]
    hooks = Hooks(traced=bool(args.trace), tick_cycles=params["tick"])
    kwargs = {"engine": args.engine} if args.engine else {}
    try:
        try:
            outputs = WORKLOADS[args.workload](seed, params, hooks, **kwargs)
        finally:
            hooks.restore()
        outputs = json.loads(canonical(outputs))
        if args.golden:
            with open(args.golden) as fh:
                table = json.load(fh).get(args.size, {}).get(args.workload, {})
            record["mismatch"] = check(outputs, table.get(str(seed)))
        else:
            record["mismatch"] = []
        record["t_done"] = clock()
        record["ok"] = not record["mismatch"]
        record["outputs"] = outputs
    except Exception:  # the record reports the failure to the parent
        record["ok"] = False
        record["error"] = traceback.format_exc(limit=8)
        print(record["error"], file=sys.stderr)

    c = hooks.clock
    record.update(
        t_first_step=c.first_step,
        run_s=c.run_seconds,
        cycles=c.cycles,
        node_cycles=c.node_cycles,
        ticks=c.tick_samples,
        engines=c.engines,
        wrappers_installed=hooks.patches.installed,
        wrappers_left=hooks.patches.left_in_place(),
        rss_mb=peak_rss_mb(),
    )
    sc = hooks.scraper
    record["scrapes"] = sc.attempted if sc is not None else 0
    record["scrape_failures"] = sc.failures if sc is not None else 0
    if hooks.tracer is not None and record["ok"]:
        record["layers"] = hooks.layer_metrics()
        record["spans"] = len(hooks.tracer.spans)
        if args.spans:
            hooks.tracer.save(args.spans, f"{args.workload}-{args.seed}")
    import numpy

    record["numpy"] = numpy.__version__
    record["python"] = sys.version.split()[0]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
