"""Which calls belong to which layer, and the per-layer metrics.

:class:`Hooks` installs the run's hooks.  An untraced run gets only the
:class:`~tracing.RunClock` on ``step()``.  A traced run also wraps the
public functions of each layer (``predictions.json`` lists the layers
and the end-to-end metric each should move):

* vector path (``table9-cold``, ``hotspot-n12``, ``serve-mesh``):
  instance attributes on the simulator, its tables, hop kernel,
  injection model and, for serve, the service and admission controller;
* sweep path (``faults-sweep``): class attributes, because
  ``degradation_sweep`` builds its own objects;
* constructors (topology, routing algorithm, tables, plan cache):
  class attributes on every workload.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import Patches, RunClock, Tracer

ROW_BUILD_SPANS = (
    "tables.central_rid#build",
    "tables.central_row#build",
    "tables.entry_row#build",
    "tables.injection_row#build",
)
PLAN_BUILD_SPANS = (
    "plans.central_plan#build",
    "plans.entry#build",
    "plans.injection_plan#build",
)


class Hooks:
    """Every hook of one run; :meth:`restore` removes them all."""

    def __init__(self, traced: bool, tick_cycles: int) -> None:
        self.patches = Patches()
        self.clock = RunClock(tick_cycles)
        self.tracer = Tracer(self.patches) if traced else None
        self.tables: list = []
        self.plan_caches: list = []
        self.services: list = []
        self.scraper = None
        if traced:
            self._constructors()

    def restore(self) -> None:
        self.patches.restore()

    # -- installation --------------------------------------------------
    def on_return(self, owner, attr: str, fn) -> None:
        """Call ``fn(result)`` whenever ``owner.attr(...)`` returns."""
        original = getattr(owner, attr)

        def call_then_report(*args, **kwargs):
            result = original(*args, **kwargs)
            fn(result)
            return result

        self.patches.replace(owner, attr, call_then_report)

    def _constructors(self) -> None:
        from repro.routing.hypercube import HypercubeAdaptiveRouting
        from repro.routing.mesh import Mesh2DAdaptiveRouting
        from repro.sim.plans import RoutingPlanCache
        from repro.sim.tables import RoutingTables
        from repro.topology.hypercube import Hypercube
        from repro.topology.mesh import Mesh2D

        tr = self.tracer
        for cls in (
            Hypercube,
            Mesh2D,
            HypercubeAdaptiveRouting,
            Mesh2DAdaptiveRouting,
        ):
            tr.wrap(cls, "__init__", "routing.build")
        tr.wrap(
            RoutingTables,
            "__init__",
            "tables.init",
            after=lambda args, _r: self.tables.append(args[0]),
        )
        tr.wrap(
            RoutingPlanCache,
            "__init__",
            "plans.init",
            after=lambda args, _r: self.plan_caches.append(args[0]),
        )
        for attr in ("central_plan", "entry", "injection_plan"):
            tr.wrap(
                RoutingPlanCache,
                attr,
                f"plans.{attr}",
                grows=lambda args: args[0].size,
                split=True,
            )

    def simulator(self, sim) -> None:
        """Hooks on one simulator object (vector path)."""
        self.patches.replace(sim, "step", self.clock.wrap_step(sim.step, sim))
        tr = self.tracer
        if tr is None:
            return
        tr.wrap(sim, "step", "engine.step")
        tr.wrap(sim, "run", "engine.run")
        tr.wrap(sim, "place_in_injection_queue", "injection.place")
        tr.wrap(sim.injection, "attempt", "injection.attempt")
        t = getattr(sim, "tables", None)
        if t is None:
            return

        def size(_args):
            return t.size + t.rows_packed

        for attr in (
            "central_rid",
            "central_row",
            "entry_row",
            "injection_row",
        ):
            tr.wrap(t, attr, f"tables.{attr}", grows=size, split=True)
        tr.wrap(
            t,
            "central_rids",
            "tables.central_rids",
            grows=lambda _args: t.rows_packed,
            after=lambda args, _r: tr.counts.update(
                {"tables.lookups": len(args[0])}
            ),
        )
        if t.kernel is not None:
            for attr in ("central_row", "entry_row", "injection_row"):
                tr.wrap(t.kernel, attr, "hops.kernel")

    def service(self, svc) -> None:
        """Hooks on a :class:`~repro.serve.TrafficService` and its sim."""
        self.services.append(svc)
        self.simulator(svc.sim)
        tr = self.tracer
        if tr is None:
            return
        tr.wrap(svc, "serve", "serve.serve")
        tr.wrap(svc.model, "on_tick", "serve.tick")
        tr.wrap(svc.model, "begin_drain", "serve.begin_drain")
        tr.wrap(svc.model.admission, "admit", "serve.admit")

    def sweep_classes(self) -> None:
        """Class-level hooks for ``degradation_sweep`` (compiled engine)."""
        from repro.faults.adapters import FaultAwareRouting, FaultInjector
        from repro.faults.models import FaultSet
        from repro.faults.watchdog import DeadlockWatchdog
        from repro.sim.compiled import CompiledPacketSimulator
        from repro.sim.injection import StaticInjection

        sim_cls = CompiledPacketSimulator
        self.patches.replace(
            sim_cls, "step", self.clock.wrap_step(sim_cls.step)
        )
        tr = self.tracer
        if tr is None:
            return
        tr.wrap(sim_cls, "step", "engine.step")
        tr.wrap(sim_cls, "run", "engine.run")
        tr.wrap(sim_cls, "place_in_injection_queue", "injection.place")
        tr.wrap(StaticInjection, "attempt", "injection.attempt")
        for attr in (
            "set_active",
            "static_hops",
            "dynamic_hops",
            "injection_targets",
        ):
            tr.wrap(FaultAwareRouting, attr, "faults.adapter")
        tr.wrap(FaultInjector, "on_cycle", "faults.adapter")
        tr.wrap(FaultSet, "distances", "faults.bfs")
        for attr in ("on_cycle", "on_stall"):
            tr.wrap(DeadlockWatchdog, attr, "faults.watchdog")

    # -- per-layer metrics ---------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the traced run (0 where unused)."""
        tab = self.tracer.table()
        counts = self.tracer.counts
        sims = [rec[5] for rec in self.clock.sims.values()]
        models = [sim.injection for sim in sims]
        m: dict[str, float] = {}

        m["routing.build_s"] = tab.inclusive("routing.build")

        m["tables.init_s"] = tab.inclusive("tables.init")
        m["tables.row_build_s"] = tab.inclusive(*ROW_BUILD_SPANS)
        m["tables.rows_built"] = sum(t.size for t in self.tables)
        lookups = counts["tables.lookups"]
        m["tables.lookup_s"] = tab.self_time("tables.central_rids")
        m["tables.lookups"] = lookups
        m["tables.hit_ratio"] = (
            1.0 - counts["tables.central_rids.grown"] / lookups
            if lookups
            else 0.0
        )
        m["tables.bytes"] = sum(_public_nbytes(t) for t in self.tables)
        m["tables.bytes_estimated"] = sum(
            t.memory_bytes() for t in self.tables
        )

        m["hops.kernel_s"] = tab.inclusive("hops.kernel")
        m["hops.kernel_calls"] = tab.count("hops.kernel")

        placed = tab.count("injection.place")
        attempts = sum(getattr(md, "attempts", 0) for md in models)
        successes = sum(getattr(md, "successes", 0) for md in models)
        m["injection.attempt_s"] = tab.self_time("injection.attempt")
        m["injection.place_s"] = tab.inclusive("injection.place")
        m["injection.placed"] = placed
        # Static injection places every packet it generates.
        m["injection.accept_ratio"] = (
            successes / attempts if attempts else float(placed > 0)
        )

        steps = self.clock.cycles
        m["engine.step_self_s"] = tab.self_time("engine.step")
        m["engine.active_mean"] = (
            self.clock.active_sum / steps if steps else 0.0
        )

        m["telemetry.flush_s"] = tab.tail_after_children(
            "engine.run", "engine.step"
        )

        m.update(self._serve_metrics(tab))
        m.update(self._http_metrics())

        m["plans.build_s"] = tab.inclusive(*PLAN_BUILD_SPANS)
        m["plans.entries"] = sum(c.size for c in self.plan_caches)

        m["faults.adapter_s"] = tab.inclusive("faults.adapter")
        m["faults.bfs_s"] = tab.inclusive("faults.bfs")
        m["faults.bfs_calls"] = tab.count("faults.bfs")
        m["faults.watchdog_s"] = tab.inclusive("faults.watchdog")
        return m

    def _serve_metrics(self, tab) -> dict[str, float]:
        totals = dict.fromkeys(
            ("offered", "accepted", "shed", "dropped", "deferred"), 0
        )
        for svc in self.services:
            snap = svc.model.admission.snapshot()
            for key in totals:
                totals[key] += sum(snap[key].values())
        drain = 0.0
        begin = tab.first_start("serve.begin_drain")
        end = tab.last_end("serve.serve")
        if begin is not None and end is not None:
            stop_s = self.scraper.stop_s if self.scraper is not None else None
            drain = end - begin - (stop_s or 0.0)
        m = {
            "serve.tick_s": tab.self_time("serve.tick"),
            "serve.admission_s": tab.self_time("serve.admit"),
            "serve.drain_s": drain,
        }
        for key, value in totals.items():
            m[f"serve.{key}"] = value
        offered = totals["offered"]
        m["serve.accept_ratio"] = (
            totals["accepted"] / offered if offered else 0.0
        )
        return m

    def _http_metrics(self) -> dict[str, float]:
        sc = self.scraper
        lat = sc.latencies_ms if sc is not None else []
        if len(lat) >= 2:
            q = statistics.quantiles(lat, n=4)
            p50, p75 = q[1], q[2]
        else:
            p50 = p75 = lat[0] if lat else 0.0
        return {
            "http.scrape_ms_p50": p50,
            "http.scrape_ms_p75": p75,
            "http.scrapes": len(lat),
            "http.scrape_failures": sc.failures if sc is not None else 0,
        }


def _public_nbytes(tables) -> int:
    """Measured bytes of the tables' public numpy arrays."""
    total = sum(
        v.nbytes
        for k, v in vars(tables).items()
        if not k.startswith("_") and isinstance(v, np.ndarray)
    )
    return total + sum(a.nbytes for a in tables.link_groups.values())
