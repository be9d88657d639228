"""Integer hop kernels: row equivalence and saturated-traffic identity.

Two layers of guarantees for ``compile_hops()`` (the integer-kernel
compilation hook, ``docs/ARCHITECTURE.md``):

* **Row equivalence** — for every shipped algorithm, the kernel-built
  :class:`~repro.sim.tables.RoutingTables` rows must be *identical* to
  the symbolic ``RoutingPlanCache`` translation (``use_kernel=False``)
  over random ``(queue, destination, state)`` triples — including keys
  whose symbolic evaluation raises (declined keys fall back to the
  symbolic path, so exception type and message match too).
* **Batched rows** — the closed-form families (hypercube, mesh) also
  build whole batches of packed rows at once (``central_rows``); every
  batched row must equal the per-row kernel row and the plan-cache
  row, in both row-id modes, and the fault adapter must never serve a
  batched row under an active fault.
* **Saturated identity** — at ``lambda = 1`` the batched vector node
  cycle (fill sweep + lexsort read admission) must produce
  byte-identical canonical event logs and equal latency multisets
  against the reference engine on all five topology families.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import reset_message_ids
from repro.faults import FaultAwareRouting, FaultSchedule, link_down
from repro.routing import (
    BenesAdaptiveRouting,
    BenesObliviousRouting,
    CCCAdaptiveRouting,
    HypercubeAdaptiveRouting,
    HypercubeHungRouting,
    HypercubeObliviousRouting,
    Mesh2DAdaptiveRouting,
    Mesh2DRestrictedRouting,
    MeshAdaptiveRouting,
    MeshObliviousRouting,
    MeshRestrictedRouting,
    ShuffleExchangeRouting,
    StructuredBufferPoolRouting,
    TorusRouting,
)
from repro.sim import (
    DynamicInjection,
    PacketSimulator,
    RandomTraffic,
    RoutingTables,
    VectorSimulator,
    make_rng,
)
from repro.telemetry import TelemetryProbe
from repro.topology import (
    BenesNetwork,
    CubeConnectedCycles,
    Hypercube,
    Mesh,
    Mesh2D,
    ShuffleExchange,
    Torus,
)

# ----------------------------------------------------------------------
# Row equivalence: kernel vs symbolic plan-cache translation
# ----------------------------------------------------------------------
KERNEL_ALGS = {
    "hypercube-adaptive": lambda: HypercubeAdaptiveRouting(Hypercube(4)),
    "hypercube-hung": lambda: HypercubeHungRouting(Hypercube(4)),
    "mesh": lambda: MeshAdaptiveRouting(Mesh((4, 4))),
    "torus": lambda: TorusRouting(Torus((4, 4))),
    "shuffle-adaptive": lambda: ShuffleExchangeRouting(ShuffleExchange(3)),
    "shuffle-static": lambda: ShuffleExchangeRouting(
        ShuffleExchange(4), adaptive=False
    ),
    "ccc": lambda: CCCAdaptiveRouting(CubeConnectedCycles(3)),
    "benes-adaptive": lambda: BenesAdaptiveRouting(BenesNetwork(2)),
    "benes-oblivious": lambda: BenesObliviousRouting(BenesNetwork(2)),
    "buffer-pool": lambda: StructuredBufferPoolRouting(Hypercube(3)),
    "fault-adapter": lambda: FaultAwareRouting(
        HypercubeAdaptiveRouting(Hypercube(3))
    ),
}

HYPERCUBE_VARIANTS = (
    HypercubeAdaptiveRouting,
    HypercubeHungRouting,
    HypercubeObliviousRouting,
)
MESH_VARIANTS = (
    MeshAdaptiveRouting,
    MeshRestrictedRouting,
    MeshObliviousRouting,
)

#: Every algorithm with a batched kernel: all hypercube variants at
#: n=2..6, all mesh variants on 2-D, 3-D and one-row shapes.
BATCHED_ALGS = (
    [
        (f"{cls.name}-n{n}", cls, lambda n=n: Hypercube(n))
        for cls in HYPERCUBE_VARIANTS
        for n in range(2, 7)
    ]
    + [
        (f"{cls.name}-{shape}", cls, lambda s=shape: Mesh(s))
        for cls in MESH_VARIANTS
        for shape in ((4, 5), (3, 3, 3), (2, 3, 2), (6,), (2, 7))
    ]
    + [
        (f"{cls.name}-{r}x{c}", cls, lambda r=r, c=c: Mesh2D(r, c))
        for cls in (Mesh2DAdaptiveRouting, Mesh2DRestrictedRouting)
        for r, c in ((4, 4), (2, 5))
    ]
)


def _call(fn, *args):
    """Outcome wrapper so raising keys compare by type + message."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - equivalence includes errors
        return ("err", type(exc).__name__, str(exc))


def _seed_states(alg, tabs):
    """Intern the same states in the same order into every table.

    Initial states for a spread of (src, dst) pairs, plus — for the
    shuffle-exchange scheme, whose state is the shuffle count — every
    count a message can carry (including the exhausted ones, which the
    kernel declines back to the symbolic error path).
    """
    nodes = tabs[0].nodes
    step = max(1, len(nodes) // 7)
    for src in nodes[::step]:
        for dst in nodes[:: step + 1]:
            state = alg.initial_state(src, dst)
            for tab in tabs:
                tab.state_id(state)
    if isinstance(alg, ShuffleExchangeRouting):
        for k in range(2 * alg.n + 2):
            for tab in tabs:
                tab.state_id(k)


@pytest.mark.parametrize("name", sorted(KERNEL_ALGS))
def test_kernel_rows_match_plan_cache(name):
    alg = KERNEL_ALGS[name]()
    kern = RoutingTables(alg)
    fall = RoutingTables(alg, use_kernel=False)
    assert kern.kernel is not None, f"{name}: compile_hops declined"
    assert fall.kernel is None
    _seed_states(alg, (kern, fall))
    assert kern.states == fall.states

    rng = np.random.default_rng(zlib.crc32(name.encode()))
    n_q = kern.n_queues
    n_nodes = len(kern.nodes)
    n_states = len(kern.states)
    for _ in range(250):
        qid = int(rng.integers(n_q))
        dst = int(rng.integers(n_nodes))
        sid = int(rng.integers(n_states))
        assert _call(kern.central_row, qid, dst, sid) == _call(
            fall.central_row, qid, dst, sid
        ), (name, "central", qid, dst, sid)
        assert _call(kern.entry_row, qid, dst, sid) == _call(
            fall.entry_row, qid, dst, sid
        ), (name, "entry", qid, dst, sid)
        ui = int(rng.integers(n_nodes))
        assert _call(kern.injection_row, ui, dst, sid) == _call(
            fall.injection_row, ui, dst, sid
        ), (name, "inject", ui, dst, sid)


def test_packed_rid_rows_match_row_tuples():
    """central_rid's packed arrays re-encode central_row faithfully."""
    alg = HypercubeAdaptiveRouting(Hypercube(4))
    tab = RoutingTables(alg)
    rng = np.random.default_rng(7)
    pad = tab.n_slots
    for _ in range(200):
        qid = int(rng.integers(tab.n_queues))
        dst = int(rng.integers(len(tab.nodes)))
        rid = tab.central_rid(qid, dst, 0)
        ext, tqs, sts, dyn, internal = tab.central_row(qid, dst, 0)
        width = len(tab.row_slots[rid])
        assert tuple(tab.row_slots[rid][: len(ext)]) == ext
        assert all(s == pad for s in tab.row_slots[rid][len(ext) :])
        assert tuple(tab.row_queues[rid][: len(tqs)]) == tqs
        assert tuple(tab.row_states[rid][: len(sts)]) == sts
        assert tuple(tab.row_dyn[rid][: len(dyn)]) == dyn
        assert bool(tab.row_hasint[rid]) == bool(internal)
        assert tab.row_internal[rid] == internal
        assert len(ext) <= width


def test_vectorized_rid_gather_matches_scalar():
    """central_rids (batch gather) == central_rid, dense and dict mode."""
    alg = MeshAdaptiveRouting(Mesh((4, 4)))
    tab = RoutingTables(alg)
    rng = np.random.default_rng(11)
    qids = rng.integers(tab.n_queues, size=64)
    dsts = rng.integers(len(tab.nodes), size=64)
    sids = np.zeros(64, dtype=np.int64)
    batch = tab.central_rids(qids, dsts, sids)
    scalar = [
        tab.central_rid(int(q), int(d), 0) for q, d in zip(qids, dsts)
    ]
    assert batch.tolist() == scalar
    # Dict mode: force the non-dense row-id path and re-check.
    tab2 = RoutingTables(alg)
    tab2._rowid_dense = None
    tab2._rowid_map = {}
    batch2 = tab2.central_rids(qids, dsts, sids)
    assert batch2.tolist() == scalar


# ----------------------------------------------------------------------
# Batched rows: central_rows vs per-row kernel vs plan-cache translation
# ----------------------------------------------------------------------
def _packed(tab, rid):
    """One packed row as plain tuples (padding stripped)."""
    n = int((tab.row_slots[rid] < tab.n_slots).sum())
    return (
        tuple(tab.row_slots[rid, :n].tolist()),
        tuple(tab.row_queues[rid, :n].tolist()),
        tuple(tab.row_states[rid, :n].tolist()),
        tuple(tab.row_dyn[rid, :n].tolist()),
        tuple(tab.row_entq[rid, :n].tolist()),
        tuple(tab.row_entst[rid, :n].tolist()),
        int(tab.row_hasint[rid]),
        tab.row_internal[rid],
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data(), dense=st.booleans())
def test_batched_rows_match_per_row_and_plan_cache(data, dense):
    _, cls, topo = data.draw(st.sampled_from(BATCHED_ALGS), label="alg")
    alg = cls(topo())
    tabs = [RoutingTables(alg) for _ in range(2)]
    tabs.append(RoutingTables(alg, use_kernel=False))
    for tab in tabs:
        tab.state_id(None)
        tab.state_id(("carried", 1))  # kernels must pass states through
    batch, per_row, symbolic = tabs
    if not dense:  # the row-id index of networks past the dense ceiling
        batch._rowid_dense = None
        batch._rowid_map = {}
    # Random keys over every queue and destination: duplicates, and
    # keys no packet can reach (phase B with an increasing correction
    # left), included.
    n_keys = data.draw(st.integers(1, 60), label="n_keys")
    keys = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, batch.n_queues - 1),
                st.integers(0, len(batch.nodes) - 1),
                st.integers(0, 1),
            ),
            min_size=n_keys,
            max_size=n_keys,
        ),
        label="keys",
    )
    keys += keys[: len(keys) // 3]
    qids, dsts, sids = (np.array(col, dtype=np.int64) for col in zip(*keys))
    rids = batch.central_rids(qids, dsts, sids)

    assert batch.rows_packed == batch.size == len(set(keys))
    assert not batch._central and not batch._entry  # no memo entries
    for key, rid in zip(keys, rids.tolist()):
        got = _packed(batch, rid)
        assert got == _packed(per_row, per_row.central_rid(*key)), key
        assert got == _packed(symbolic, symbolic.central_rid(*key)), key
    assert per_row._batch_rows == symbolic._batch_rows == 0


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batched_injection_rows_match_per_key_and_plan_cache(data):
    _, cls, topo = data.draw(st.sampled_from(BATCHED_ALGS), label="alg")
    alg = cls(topo())
    batch = RoutingTables(alg)
    symbolic = RoutingTables(alg, use_kernel=False)
    for tab in (batch, symbolic):
        tab.state_id(("carried", 1))  # kernels must pass states through
    n = len(batch.nodes)
    keys = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([batch.state_id(None), 1]),
            ),
            min_size=1,
            max_size=40,
        ),
        label="keys",
    )
    uis, dsts, sids = (np.array(col, dtype=np.int64) for col in zip(*keys))
    queues, states = batch.injection_rows(uis, dsts, sids)
    assert not batch._inject and not batch._entry  # no memo entries
    for key, q, st_ in zip(keys, queues.tolist(), states.tolist()):
        assert ((q, st_),) == symbolic.injection_row(*key), key


def test_non_closed_form_kernels_decline_batches():
    """Every other family keeps the per-row path."""
    for name in ("torus", "ccc"):
        alg = KERNEL_ALGS[name]()
        tab = RoutingTables(alg)
        assert tab.kernel is not None
        qids = np.arange(tab.n_queues, dtype=np.int64)
        dsts = np.ones(tab.n_queues, dtype=np.int64)
        sids = np.full(
            tab.n_queues, tab.state_id(alg.initial_state(*tab.nodes[:2]))
        )
        assert tab.kernel.central_rows(qids, dsts, sids) is None
        us = np.arange(len(tab.nodes), dtype=np.int64)
        assert tab.kernel.injection_rows(us, us[::-1], sids[us]) is None
        tab.central_rids(qids, dsts, sids)
        assert tab._batch_rows == 0
        assert len(tab._central) == tab.rows_packed == tab.n_queues


def test_fault_gate_serves_no_batched_rows_under_active_fault(monkeypatch):
    alg = HypercubeAdaptiveRouting(Hypercube(4))
    adapter = FaultAwareRouting(alg)
    tab = RoutingTables(adapter)
    inner = tab.kernel.inner
    calls = []
    real = inner.central_rows
    monkeypatch.setattr(
        inner,
        "central_rows",
        lambda *a: calls.append(len(a[0])) or real(*a),
    )
    tab.state_id(None)
    qids, dsts = (
        g.ravel()
        for g in np.meshgrid(
            np.arange(tab.n_queues), np.arange(len(tab.nodes))
        )
    )
    sids = np.zeros(qids.size, dtype=np.int64)

    # Healthy: the inner kernel builds the whole batch.
    tab.central_rids(qids, dsts, sids)
    assert calls and tab._batch_rows == qids.size

    # Active link fault: the epoch flip drops every row, the batch is
    # declined, and the rows are the symbolic adapter's.
    calls.clear()
    adapter.set_active(
        FaultSchedule.fixed(alg.topology, [link_down(0, 1)]).final
    )
    rids = tab.central_rids(qids, dsts, sids)
    assert not calls
    assert tab._batch_rows == 0
    symbolic = RoutingTables(adapter, use_kernel=False)
    symbolic.state_id(None)
    keys = zip(qids.tolist(), dsts.tolist(), sids.tolist())
    for key, rid in zip(keys, rids.tolist()):
        assert _packed(tab, rid) == _packed(
            symbolic, symbolic.central_rid(*key)
        ), key


def test_size_and_memory_count_batched_rows_honestly():
    """After a run built by the batched path only: ``size`` counts each
    row once and ``memory_bytes`` estimates only memo entries that
    exist (here: the injection rows)."""
    reset_message_ids()
    topo = Hypercube(5)
    alg = HypercubeAdaptiveRouting(topo)
    model = DynamicInjection(
        1.0, RandomTraffic(topo), make_rng(3), duration=60
    )
    sim = VectorSimulator(alg, model)
    sim.run(max_cycles=100_000)
    tab = sim.tables
    assert tab._batch_rows > 0
    assert not tab._central and not tab._entry
    assert tab.size == tab.rows_packed + len(tab._inject)
    exact = sum(
        getattr(tab, name).nbytes
        for name in (
            "row_slots",
            "row_queues",
            "row_states",
            "row_dyn",
            "row_entq",
            "row_entst",
            "row_hasint",
        )
    )
    exact += tab._rowid_dense.nbytes
    assert tab.memory_bytes() == exact + 200 * len(tab._inject)


# ----------------------------------------------------------------------
# Saturated-traffic identity: batched node cycle vs reference engine
# ----------------------------------------------------------------------
TOPOLOGIES = {
    "hypercube": (lambda: Hypercube(4), HypercubeAdaptiveRouting),
    "mesh": (lambda: Mesh((5, 5)), MeshAdaptiveRouting),
    "torus": (lambda: Torus((4, 4)), TorusRouting),
    "shuffle": (lambda: ShuffleExchange(4), ShuffleExchangeRouting),
    "ccc": (lambda: CubeConnectedCycles(3), CCCAdaptiveRouting),
}


def _instrumented_run(key, engine, seed=11):
    build, alg_cls = TOPOLOGIES[key]
    reset_message_ids()
    topo = build()
    alg = alg_cls(topo)
    model = DynamicInjection(
        1.0, RandomTraffic(topo), make_rng(seed), duration=80
    )
    probe = TelemetryProbe()
    sim = (PacketSimulator if engine == "reference" else VectorSimulator)(
        alg, model
    )
    probe.attach(sim)
    result = sim.run(max_cycles=200_000)
    return probe, result


@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_saturated_batched_event_logs_byte_identical(key):
    ref_p, ref_r = _instrumented_run(key, "reference")
    vec_p, vec_r = _instrumented_run(key, "vector")
    assert ref_p.log.to_jsonl() == vec_p.log.to_jsonl()
    assert sorted(ref_r.latency.values) == sorted(vec_r.latency.values)
    assert ref_r.cycles == vec_r.cycles
    assert ref_r.injected == vec_r.injected
    assert ref_r.delivered == vec_r.delivered


SATURATED_BATCHED = {
    **{
        f"hypercube-n7-{cls.name}": (lambda: Hypercube(7), cls)
        for cls in HYPERCUBE_VARIANTS
    },
    **{
        f"mesh-8x8-{cls.name}": (lambda: Mesh((8, 8)), cls)
        for cls in MESH_VARIANTS
    },
}


@pytest.mark.parametrize("key", sorted(SATURATED_BATCHED))
def test_saturated_batched_rows_byte_identical(key):
    """Networks big enough for the batched fill, every closed-form
    variant: the batched rows leave the event log unchanged."""
    build, alg_cls = SATURATED_BATCHED[key]
    runs = []
    for engine in ("reference", "vector"):
        reset_message_ids()
        topo = build()
        alg = alg_cls(topo)
        model = DynamicInjection(
            1.0, RandomTraffic(topo), make_rng(5), duration=30
        )
        sim = (PacketSimulator if engine == "reference" else VectorSimulator)(
            alg, model
        )
        probe = TelemetryProbe()
        probe.attach(sim)
        result = sim.run(max_cycles=100_000)
        runs.append((probe.log.to_jsonl(), result.cycles, result.delivered))
        if engine == "vector":
            assert sim.tables._batch_rows > 0
    assert runs[0] == runs[1]

