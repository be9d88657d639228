"""Smoke-size self-test of the benchmark (hypercube n4, 4x4 mesh, 50 cycles).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import WORKLOAD_NAMES, metric_units  # noqa: E402

PREDICTIONS = json.loads((HERE / "predictions.json").read_text())["per_layer"]
#: Per-layer metrics that may read 0 at smoke size although their layer
#: runs: counts of events the tiny networks never provoke, the overhead
#: (noise at this size), and the batched row-id lookups, which the
#: vector engine only takes with enough busy nodes (covered by
#: ``test_batched_lookups_are_traced``).
ZERO_AT_SMOKE = {
    "serve.shed",
    "serve.dropped",
    "http.scrape_failures",
    "trace.overhead_frac",
    "tables.lookup_s",
    "tables.lookups",
    "tables.hit_ratio",
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0.1",
         "--size", "smoke", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_printed_and_golden_values_pass(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = metric_units("end_to_end")
    assert set(res["metrics"]) == set(units)
    for name, unit in units.items():
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0, name
        assert f"  {name} = " in proc.stdout and f" {unit}\n" in proc.stdout
    assert "failed_frac = 0/" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reports_layers_with_unchanged_outputs(workload):
    res = result(bench("--workload", workload, "--seed", "0", "--trace", "1"))
    assert res["correct"]
    units = metric_units("per_layer")
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    for name, pred in PREDICTIONS.items():
        if name in ZERO_AT_SMOKE or not {workload, "all"} & set(pred["on"]):
            continue
        assert res["metrics"][name]["value"] > 0, name
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed0-trace1.json").read_text()
    )
    runs = record["runs"]
    assert {r["traced"] for r in runs} == {False, True}
    assert all(r["ok"] and r["wrappers_left"] == 0 for r in runs)
    traced = [r for r in runs if r["traced"]]
    assert all(r["wrappers_installed"] > 2 for r in traced)
    assert all(r["outputs"] == runs[0]["outputs"] for r in runs)


def test_wrong_golden_value_shows_up_as_failed(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["smoke"]["table9-cold"]["12345"]["delivered"] += 1
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps(golden))
    proc = bench(
        "--workload", "table9-cold", "--seed", "0", "--trace", "0",
        "--golden", str(wrong),
    )
    res = result(proc)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert "failed_frac = 0/" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = bench("--workload", "table9-cold", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_hooks_are_removed_after_a_traced_sweep():
    from layers import Hooks
    from repro.sim.compiled import CompiledPacketSimulator
    from repro.sim.tables import RoutingTables
    from workloads import SIZES, faults_sweep

    classes = (CompiledPacketSimulator, RoutingTables)
    before = [dict(vars(cls)) for cls in classes]
    hooks = Hooks(traced=True, tick_cycles=1)
    try:
        faults_sweep(12345, SIZES["faults-sweep"]["smoke"], hooks)
    finally:
        hooks.restore()
    assert hooks.patches.left_in_place() == 0
    assert [dict(vars(cls)) for cls in classes] == before
    layers = hooks.layer_metrics()
    assert layers["plans.entries"] > 0 and layers["faults.bfs_calls"] > 0


def test_batched_lookups_are_traced():
    from layers import Hooks
    from workloads import SIZES, table9_cold

    class BatchedHooks(Hooks):
        def simulator(self, sim) -> None:
            sim.batch_fill_min = 1  # take the batched fill at smoke size
            super().simulator(sim)

    hooks = BatchedHooks(traced=True, tick_cycles=1)
    try:
        table9_cold(12345, SIZES["table9-cold"]["smoke"], hooks)
    finally:
        hooks.restore()
    assert hooks.patches.left_in_place() == 0
    layers = hooks.layer_metrics()
    for name in ("tables.lookup_s", "tables.lookups", "tables.hit_ratio"):
        assert layers[name] > 0, name
