"""The benchmark's four workloads, each one cold call of a public entry point.

Every workload takes the input seed and a size preset and returns the
simulated outputs the golden check compares.  ``hooks`` is the run's
:class:`~layers.Hooks`; a workload hands it each simulator (or service)
before the first cycle so the hooks can be installed on that object.

Why these four (the layers they exercise are listed in
``predictions.json``):

* ``table9-cold`` — paper Table 9 at n=8: saturated lambda=1 traffic that
  builds routing-table rows lazily while it runs.
* ``hotspot-n12`` — 4096 nodes, sparse hotspot traffic: reads few rows,
  but each lookup goes through the dict row index of large networks.
* ``serve-mesh`` — the streaming service on a 16x16 mesh with admission
  control and a client scraping ``/metrics``: the open-loop path.
* ``faults-sweep`` — the fault-degradation sweep (hypercube n=8): the
  compiled engine, the plan cache, the fault adapter, BFS distances and
  the watchdog.
"""

from __future__ import annotations

import threading
import time
import urllib.request

#: Size presets: ``full`` is what the benchmark measures, ``smoke`` is
#: the self-test's (hypercube n4, 4x4 mesh, 50 cycles).  ``tick`` is the
#: number of simulated cycles per tick sample: the service's
#: ``tick_cycles`` on serve-mesh (how stale live ``/metrics`` gets), one
#: cycle on the single batch runs, and 0 (one tick per sweep cell, one
#: row of ``repro faults`` output) on the fault sweep.
SIZES: dict[str, dict[str, dict]] = {
    "table9-cold": {
        "full": {"n": 8, "duration": None, "tick": 1},
        "smoke": {"n": 4, "duration": 50, "tick": 1},
    },
    "hotspot-n12": {
        "full": {"n": 12, "rate": 0.005, "cycles": 500, "tick": 1},
        "smoke": {"n": 4, "rate": 0.05, "cycles": 50, "tick": 1},
    },
    "serve-mesh": {
        "full": {"side": 16, "cycles": 1000, "gold": 60, "bronze": 120,
                 "tick": 20},
        "smoke": {"side": 4, "cycles": 50, "gold": 6, "bronze": 12,
                  "tick": 20},
    },
    "faults-sweep": {
        "full": {"n": 8, "counts": [0, 8, 16, 32], "packets": 8, "tick": 0},
        "smoke": {"n": 4, "counts": [0, 2], "packets": 2, "tick": 0},
    },
}

#: Period of the serve workload's ``/metrics`` scraper.
SCRAPE_SECONDS = 0.05


def input_seed(seed: int) -> int:
    """Input seed for a ``--seed``: one of 16 with committed golden values."""
    return 12345 + seed % 16


def _batch_outputs(result) -> dict:
    return {
        "delivered": result.delivered,
        "injected": result.injected,
        "cycles": result.cycles,
        "l_avg": result.l_avg,
        "l_max": result.l_max,
        "injection_rate": result.injection_rate,
    }


def table9_cold(seed: int, p: dict, hooks, engine: str | None = None) -> dict:
    from repro.experiments import HypercubeExperiment

    exp = HypercubeExperiment(
        pattern="random",
        injection="dynamic",
        rate=1.0,
        duration=p["duration"],
        seed=seed,
    )
    hooks.on_return(exp, "build", hooks.simulator)
    return _batch_outputs(exp.run(p["n"], engine=engine))


def hotspot_n12(seed: int, p: dict, hooks, engine: str | None = None) -> dict:
    from repro.experiments import build_simulator
    from repro.routing.hypercube import HypercubeAdaptiveRouting
    from repro.sim import DynamicInjection, HotspotTraffic, make_rng
    from repro.topology.hypercube import Hypercube

    cube = Hypercube(p["n"])
    alg = HypercubeAdaptiveRouting(cube)
    model = DynamicInjection(
        p["rate"],
        HotspotTraffic(cube, fraction=1.0),
        make_rng(seed, "perfbench-hotspot"),
        duration=p["cycles"],
        warmup=p["cycles"] // 3,
    )
    sim = build_simulator(alg, model, engine=engine)
    hooks.simulator(sim)
    return _batch_outputs(sim.run())


def serve_scenario(seed: int, p: dict, engine: str) -> dict:
    """The ``repro serve`` scenario of the serve-mesh workload."""
    return {
        "name": "perfbench-serve-mesh",
        "seed": seed,
        "topology": {"family": "mesh", "size": p["side"]},
        "algorithm": "adaptive",
        "engine": engine,
        "populations": [
            {
                "name": "interactive",
                "qos": "gold",
                "users": {"mean": p["gold"], "distribution": "poisson"},
                "rate_per_user": 0.04,
                "pattern": "random",
                "resample_every": 100,
            },
            {
                "name": "batch",
                "qos": "bronze",
                "users": {
                    "mean": p["bronze"],
                    "distribution": "log_normal",
                    "variance": 900,
                },
                "rate_per_user": 0.04,
                "pattern": "hotspot",
                "pattern_params": {"fraction": 0.2},
                "resample_every": 200,
                "load_shape": {
                    "kind": "bursty",
                    "period": 400,
                    "multiplier": 3,
                    "burst_cycles": 80,
                },
            },
        ],
        "service": {
            "tick_cycles": p["tick"],
            "duration_cycles": p["cycles"],
            "admission": {
                "policy": "shed-by-class",
                "max_deferred_per_node": 4,
                "shed_threshold": 16,
                "class_order": ["gold", "bronze"],
            },
        },
    }


class Scraper:
    """Client thread fetching ``/metrics`` every ``SCRAPE_SECONDS``."""

    def __init__(self, service) -> None:
        self.service = service
        self.latencies_ms: list[float] = []
        self.failures = 0
        #: Seconds the first :meth:`stop` waited for the thread to end.
        self.stop_s: float | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "Scraper":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while self.service.endpoint is None:
            if self._stop.wait(0.005):
                return
        url = self.service.endpoint.url + "/metrics"
        while not self._stop.is_set():
            t0 = time.perf_counter()
            try:
                with urllib.request.urlopen(url, timeout=5) as resp:
                    ok = resp.status == 200 and b"repro_" in resp.read()
            except OSError:
                ok = False
            if ok:
                self.latencies_ms.append(1000 * (time.perf_counter() - t0))
            else:
                self.failures += 1
            self._stop.wait(SCRAPE_SECONDS)

    def stop(self) -> None:
        t0 = time.perf_counter()
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("metrics scraper did not stop")
        if self.stop_s is None:
            self.stop_s = time.perf_counter() - t0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms) + self.failures


def serve_mesh(seed: int, p: dict, hooks, engine: str = "vector") -> dict:
    from repro.serve import TrafficService
    from repro.serve.scenario import parse_scenario

    service = TrafficService(parse_scenario(serve_scenario(seed, p, engine)))
    scraper = Scraper(service)
    hooks.scraper = scraper
    hooks.service(service)
    # Stop scraping when the run returns, before serve() closes the
    # endpoint, so shutdown is not counted as failed scrapes.  Installed
    # after the service hooks, so the wait for the scraper falls outside
    # the traced run (telemetry.flush_s); serve.drain_s leaves it out.
    hooks.on_return(service.sim, "run", lambda _result: scraper.stop())
    scraper.start()
    try:
        code = service.serve(port=0)
    finally:
        scraper.stop()
    out = _batch_outputs(service.result)
    out["exit_code"] = code
    out["admission"] = service.model.admission.snapshot()
    return out


def faults_sweep(seed: int, p: dict, hooks, engine: str | None = None) -> dict:
    from repro.faults.experiments import degradation_sweep

    hooks.sweep_classes()
    rows = degradation_sweep(
        "hypercube",
        p["n"],
        p["counts"],
        seed=seed,
        packets_per_node=p["packets"],
        engine=engine,
        workers=1,
    )
    return {"rows": rows}


WORKLOADS = {
    "table9-cold": table9_cold,
    "hotspot-n12": hotspot_n12,
    "serve-mesh": serve_mesh,
    "faults-sweep": faults_sweep,
}
