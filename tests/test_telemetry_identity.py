"""Cross-engine telemetry identity.

The event log is part of the engines' observable behavior: at the same
seed, the reference and compiled engines must produce *byte-identical*
canonical JSONL event logs — healthy and under a fault schedule.  This
is the strongest cross-engine check in the suite (stronger than
latency-multiset equality): every inject/enqueue/hop/deliver must land
on the same packet at the same cycle with the same queue.
"""

import hashlib

import pytest

from repro.faults import FaultSchedule, link_down, link_stall, node_down
from repro.faults.experiments import make_fault_simulator
from repro.routing import (
    HypercubeAdaptiveRouting,
    Mesh2DAdaptiveRouting,
    TorusRouting,
)
from repro.sim import (
    DynamicInjection,
    HotspotTraffic,
    RandomTraffic,
    StaticInjection,
    make_rng,
)
from repro.core.message import reset_message_ids
from repro.telemetry import TelemetryProbe, read_jsonl
from repro.topology import Hypercube, Mesh2D, Torus

FAMILIES = {
    "hypercube": (lambda: Hypercube(4), HypercubeAdaptiveRouting),
    "mesh": (lambda: Mesh2D(5), Mesh2DAdaptiveRouting),
}

SCHEDULES = {
    "healthy": FaultSchedule.healthy,
    "immediate-links": lambda topo: FaultSchedule.random_links(
        topo, 3, seed=13
    ),
    "scripted-mixed": lambda topo: FaultSchedule.fixed(
        topo,
        [
            link_down(*_first_link(topo), at=4),
            link_stall(*_second_link(topo), at=6, until=60),
            node_down(_last_node(topo), at=15),
        ],
    ),
}


def _first_link(topo):
    return next(iter(sorted(topo.links(), key=repr)))


def _second_link(topo):
    links = sorted(topo.links(), key=repr)
    return links[len(links) // 2]


def _last_node(topo):
    return sorted(topo.nodes(), key=repr)[-1]


def _run(key, make_schedule, engine, seed=3):
    """One instrumented run; returns (probe, result)."""
    reset_message_ids()
    build, alg_cls = FAMILIES[key]
    topo = build()
    alg = alg_cls(topo)
    model = StaticInjection(2, RandomTraffic(topo), make_rng(seed))
    probe = TelemetryProbe()
    sim = make_fault_simulator(
        alg, model, make_schedule(topo), engine=engine, telemetry=probe
    )
    result = sim.run(max_cycles=500_000)
    return probe, result


@pytest.mark.parametrize("key", sorted(FAMILIES))
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_event_logs_byte_identical(key, name):
    make_schedule = SCHEDULES[name]
    ref, _ = _run(key, make_schedule, "reference")
    com, _ = _run(key, make_schedule, "compiled")
    assert ref.log.to_jsonl() == com.log.to_jsonl()
    if name != "healthy":
        kinds = {r["kind"] for r in read_jsonl(ref.log.to_jsonl())}
        assert "epoch" in kinds


def _measured(summary):
    """A summary with the engine-specific fields masked.

    The engine name and the routing-compilation stats (plan-cache vs
    integer-table gauges, `docs/OBSERVABILITY.md`) describe *how* an
    engine ran, by construction per-engine; everything measured about
    the traffic itself must still be identical.
    """
    masked = dict(summary, engine="*", routing_compile="*")
    masked["metrics"] = {
        name: value
        for name, value in summary["metrics"].items()
        if not name.startswith(("repro_tables_", "repro_plan_cache_"))
    }
    return masked


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_summaries_identical(key):
    ref, rres = _run(key, SCHEDULES["immediate-links"], "reference")
    com, cres = _run(key, SCHEDULES["immediate-links"], "compiled")
    # Engine name differs by construction; everything measured must not.
    assert _measured(ref.summary) == _measured(com.summary)
    assert rres.telemetry == ref.summary
    assert cres.telemetry == com.summary


def test_metrics_only_probe_matches_event_replay():
    """The streaming metrics sink and the event-log replay are the same
    aggregation: a metrics-only run must report identical counters."""
    snapshots = {}
    for events in (True, False):
        reset_message_ids()
        topo = Hypercube(4)
        probe = TelemetryProbe(events=events)
        sim = make_fault_simulator(
            HypercubeAdaptiveRouting(topo),
            StaticInjection(2, RandomTraffic(topo), make_rng(3)),
            FaultSchedule.random_links(topo, 3, seed=13),
            engine="compiled",
            telemetry=probe,
        )
        sim.run(max_cycles=500_000)
        snapshots[events] = probe.registry.snapshot()
        if not events:
            assert probe.log is None
    assert snapshots[True] == snapshots[False]


def _traffic_metrics(snapshot):
    """Registry snapshot minus the compilation gauges.

    ``repro_tables_compile_seconds`` is wall-clock and legitimately
    differs between two runs; the traffic aggregation must not.
    """
    return {
        name: value
        for name, value in snapshot.items()
        if not name.startswith(("repro_tables_", "repro_plan_cache_"))
    }


def _run_healthy_direct(key, engine_cls, seed=3, events=True):
    """One healthy instrumented run with a directly-attached probe.

    The vector engine takes no fault observers, so it cannot go through
    :func:`make_fault_simulator`; attaching the probe directly compares
    all three generic engines on equal footing.
    """
    reset_message_ids()
    build, alg_cls = FAMILIES[key]
    topo = build()
    model = StaticInjection(2, RandomTraffic(topo), make_rng(seed))
    probe = TelemetryProbe(events=events)
    sim = engine_cls(alg_cls(topo), model)
    probe.attach(sim)
    result = sim.run(max_cycles=500_000)
    return probe, result


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_vector_event_log_byte_identical(key):
    """The vector engine's buffered columnar events must flush to the
    same canonical JSONL bytes as the reference engine's."""
    from repro.sim.engine import PacketSimulator
    from repro.sim.vector import VectorSimulator

    ref, rres = _run_healthy_direct(key, PacketSimulator)
    vec, vres = _run_healthy_direct(key, VectorSimulator)
    assert ref.log.to_jsonl() == vec.log.to_jsonl()
    assert _measured(ref.summary) == _measured(vec.summary)
    assert vres.telemetry == vec.summary


#: Canonical-JSONL sha256 per case.  Every engine must produce these
#: exact bytes: a change to packet ids, RNG consumption or event order
#: in any engine's injection path shows up here.
PINNED = {
    "hypercube-static3-random": (
        lambda: HypercubeAdaptiveRouting(Hypercube(4)),
        lambda topo: StaticInjection(3, RandomTraffic(topo), make_rng(3)),
        "98060c933ebc1514ea9881b0d43d6ab543f2c83cff4aa9b260fc46db94d904cf",
    ),
    "mesh-dynamic0.5-random": (
        lambda: Mesh2DAdaptiveRouting(Mesh2D(4)),
        lambda topo: DynamicInjection(
            0.5, RandomTraffic(topo), make_rng(3), duration=60, warmup=10
        ),
        "3ac8bdf5dc84a50904e192df4cc29d61293dc4e2b95811fc5f17a7f2ddc14ab8",
    ),
    # The scalar-fallback pattern on a family whose injection rows are
    # built per key.
    "torus-dynamic0.5-hotspot0.2": (
        lambda: TorusRouting(Torus((4, 4))),
        lambda topo: DynamicInjection(
            0.5,
            HotspotTraffic(topo, fraction=0.2),
            make_rng(3),
            duration=60,
            warmup=10,
        ),
        "1d87cbb29144f0d856a4042bc6a82f2513797d443fffcbecc142fc1c9778c147",
    ),
}


@pytest.mark.parametrize("engine", ["reference", "compiled", "vector"])
@pytest.mark.parametrize("case", sorted(PINNED))
def test_event_log_matches_pinned_hash(case, engine):
    from repro.sim import CompiledPacketSimulator, PacketSimulator
    from repro.sim.vector import VectorSimulator

    engine_cls = {
        "reference": PacketSimulator,
        "compiled": CompiledPacketSimulator,
        "vector": VectorSimulator,
    }[engine]
    build_alg, build_model, digest = PINNED[case]
    reset_message_ids()
    alg = build_alg()
    probe = TelemetryProbe()
    sim = engine_cls(alg, build_model(alg.topology))
    probe.attach(sim)
    sim.run(max_cycles=500_000)
    jsonl = probe.log.to_jsonl().encode()
    assert hashlib.sha256(jsonl).hexdigest() == digest


def test_vector_metrics_only_probe_matches_event_replay():
    """The vector engine's bulk metrics path (columnar flush into the
    streaming sink) must aggregate exactly like the event-log replay."""
    from repro.sim.vector import VectorSimulator

    snapshots = {}
    for events in (True, False):
        probe, _ = _run_healthy_direct(
            "hypercube", VectorSimulator, events=events
        )
        snapshots[events] = probe.registry.snapshot()
        if not events:
            assert probe.log is None
    assert _traffic_metrics(snapshots[True]) == _traffic_metrics(
        snapshots[False]
    )


def test_timeline_reconstruction_consistent_across_engines():
    timelines = {}
    for engine in ("reference", "compiled"):
        probe, _ = _run("hypercube", SCHEDULES["healthy"], engine)
        timelines[engine] = probe.log.timelines()
    assert timelines["reference"] == timelines["compiled"]
    assert timelines["reference"]  # non-empty
