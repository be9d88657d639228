"""Unit tests for the traffic patterns (paper, Section 7).

Also the ``draw_batch`` audit: every pattern the package can build
must draw, in one batch, exactly what one scalar ``draw`` per source
draws, and leave its RNG in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.other_topologies import (
    CCCComplementTraffic,
    SEBitReversalTraffic,
)
from repro.routing.benes import BenesTraffic
from repro.serve.scenario import _HYPERCUBE_PATTERNS, make_pattern
from repro.sim import (
    BitReversalTraffic,
    ComplementTraffic,
    HotspotTraffic,
    LeveledPermutationTraffic,
    MeshTransposeTraffic,
    RandomTraffic,
    ShufflePermutationTraffic,
    TornadoTraffic,
    TransposeTraffic,
    hypercube_pattern,
    make_rng,
    transpose_address,
)
from repro.sim.sampling import batch_drawer
from repro.sim.traffic import PermutationTraffic, TrafficPattern
from repro.topology import (
    CubeConnectedCycles,
    Hypercube,
    Mesh2D,
    ShuffleExchange,
    Torus,
)
from repro.topology.benes import BenesNetwork
from repro.topology.hypercube import hamming_weight


def test_random_never_self():
    cube = Hypercube(4)
    t = RandomTraffic(cube)
    rng = make_rng(0)
    for u in cube.nodes():
        for _ in range(20):
            assert t.draw(u, rng) != u


def test_random_covers_all_destinations():
    cube = Hypercube(3)
    t = RandomTraffic(cube)
    rng = make_rng(1)
    seen = {t.draw(0, rng) for _ in range(500)}
    assert seen == set(range(1, 8))


def test_complement():
    cube = Hypercube(4)
    t = ComplementTraffic(cube)
    rng = make_rng(0)
    assert t.draw(0b0000, rng) == 0b1111
    assert t.draw(0b1010, rng) == 0b0101
    assert t.is_permutation


def test_transpose_even_n():
    assert transpose_address(0b1100, 4) == 0b0011
    assert transpose_address(0b1000, 4) == 0b0010
    assert transpose_address(0b0110, 4) == 0b1001


def test_transpose_odd_n_keeps_middle_bit():
    # n=5: halves are 2 bits; the middle bit (position 2) stays.
    assert transpose_address(0b11000, 5) == 0b00011
    assert transpose_address(0b00100, 5) == 0b00100


def test_transpose_is_involution():
    for n in (4, 5, 6, 7):
        for u in range(1 << n):
            assert transpose_address(transpose_address(u, n), n) == u


def test_leveled_permutation_preserves_level():
    cube = Hypercube(5)
    t = LeveledPermutationTraffic(cube, make_rng(7))
    rng = make_rng(0)
    for u in cube.nodes():
        assert hamming_weight(t.draw(u, rng)) == hamming_weight(u)


def test_leveled_permutation_is_bijective():
    cube = Hypercube(4)
    t = LeveledPermutationTraffic(cube, make_rng(3))
    targets = sorted(t.mapping.values())
    assert targets == list(cube.nodes())


def test_bit_reversal():
    cube = Hypercube(4)
    t = BitReversalTraffic(cube)
    rng = make_rng(0)
    assert t.draw(0b0001, rng) == 0b1000
    assert t.draw(0b1010, rng) == 0b0101


def test_shuffle_permutation():
    cube = Hypercube(3)
    t = ShufflePermutationTraffic(cube)
    rng = make_rng(0)
    assert t.draw(0b001, rng) == 0b010
    assert t.draw(0b100, rng) == 0b001


def test_mesh_transpose():
    m = Mesh2D(4)
    t = MeshTransposeTraffic(m)
    rng = make_rng(0)
    assert t.draw((1, 3), rng) == (3, 1)
    with pytest.raises(ValueError):
        MeshTransposeTraffic(Mesh2D(2, 3))


def test_tornado():
    t5 = Torus((5, 5))
    t = TornadoTraffic(t5)
    rng = make_rng(0)
    assert t.draw((0, 0), rng) == (2, 0)
    assert t.draw((4, 1), rng) == (1, 1)


def test_permutation_rejects_non_injective():
    with pytest.raises(ValueError):
        PermutationTraffic({0: 1, 2: 1}, "broken")


def test_permutation_rejects_targets_outside_its_nodes():
    with pytest.raises(ValueError):
        PermutationTraffic({0: 1}, "partial")


def test_factory():
    cube = Hypercube(4)
    rng = make_rng(0)
    for name in ("random", "complement", "transpose", "leveled",
                 "bit-reversal", "shuffle-perm"):
        p = hypercube_pattern(name, cube, rng)
        assert p.name in (name, "leveled")
    with pytest.raises(ValueError):
        hypercube_pattern("nope", cube, rng)


@given(st.integers(2, 6), st.integers(0, 1000))
def test_random_traffic_uniform_support(n, seed):
    cube = Hypercube(n)
    t = RandomTraffic(cube)
    rng = make_rng(seed)
    d = t.draw(0, rng)
    assert 0 < d < cube.num_nodes


# ----------------------------------------------------------------------
# draw_batch audit: every buildable pattern against its scalar loop
# ----------------------------------------------------------------------
def _all_pattern_classes():
    # Import every module that defines a pattern, then walk the tree.
    import repro.experiments.other_topologies  # noqa: F401
    import repro.routing.benes  # noqa: F401
    import repro.serve.scenario  # noqa: F401

    seen, todo = set(), [TrafficPattern]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return seen


_PERMUTATION = "a fixed index map: the RNG is never touched"

#: Every pattern class -> (does it override draw_batch?, why).
DRAW_BATCH_AUDIT = {
    RandomTraffic: (
        True,
        "integers(n-1, size=m) is the stream of m scalar integers(n-1)",
    ),
    PermutationTraffic: (True, _PERMUTATION),
    ComplementTraffic: (True, _PERMUTATION),
    TransposeTraffic: (True, _PERMUTATION),
    LeveledPermutationTraffic: (True, _PERMUTATION),
    BitReversalTraffic: (True, _PERMUTATION),
    ShufflePermutationTraffic: (True, _PERMUTATION),
    MeshTransposeTraffic: (True, _PERMUTATION),
    TornadoTraffic: (True, _PERMUTATION),
    CCCComplementTraffic: (True, _PERMUTATION),
    SEBitReversalTraffic: (True, _PERMUTATION),
    HotspotTraffic: (
        False,
        "each draw interleaves random() with a conditional integers()",
    ),
    BenesTraffic: (
        False,
        "only level-0 sources draw, so the stream depends on which "
        "sources are inputs",
    ),
}


def test_every_pattern_is_audited():
    """A new pattern must be added to the audit table, which must say
    truthfully whether it overrides draw_batch."""
    classes = _all_pattern_classes()
    assert classes - set(DRAW_BATCH_AUDIT) == set(), "unaudited pattern"
    for cls, (batched, reason) in DRAW_BATCH_AUDIT.items():
        overrides = cls.draw_batch is not TrafficPattern.draw_batch
        assert overrides == batched, (cls.__name__, reason)


def _builders():
    """Every pattern ``repro.sim`` and ``make_pattern`` can build (plus
    the other-topology ones), as ``name -> build(rng)``."""
    cube4, cube5 = Hypercube(4), Hypercube(5)
    mesh, torus = Mesh2D(4), Torus((5, 5))
    builders = {
        "sim-permutation": lambda rng: PermutationTraffic(
            {0: 1, 1: 0, 2: 2, 3: 3}, "swap01"
        ),
        "sim-hotspot-default": lambda rng: HotspotTraffic(cube4),
        "sim-hotspot-all": lambda rng: HotspotTraffic(torus, fraction=1.0),
        "benes-random": lambda rng: BenesTraffic(BenesNetwork(2)),
        "benes-permutation": lambda rng: BenesTraffic(
            BenesNetwork(2), rng, permutation=True
        ),
        "ccc-complement": lambda rng: CCCComplementTraffic(
            CubeConnectedCycles(3)
        ),
        "se-bit-reversal": lambda rng: SEBitReversalTraffic(
            ShuffleExchange(4)
        ),
    }
    for name in _HYPERCUBE_PATTERNS:
        for topo in (cube4, cube5):
            builders[f"{name}-n{topo.n}"] = (
                lambda rng, name=name, topo=topo: make_pattern(
                    name, topo, rng
                )
            )
    for topo in (mesh, torus):
        for name in ("random", "hotspot", "mesh-transpose", "tornado"):
            if name == "tornado" and topo is mesh:
                continue
            builders[f"{name}-{topo.name}"] = (
                lambda rng, name=name, topo=topo: make_pattern(
                    name, topo, rng, {"fraction": 0.2}
                )
            )
    return builders


BUILDERS = _builders()


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILDERS)),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.floats(0, 1, exclude_max=True), max_size=40),
)
def test_draw_batch_equals_scalar_loop(name, seed, picks):
    pattern = BUILDERS[name](make_rng(7))
    nodes = pattern.nodes
    index = {u: i for i, u in enumerate(nodes)}
    srcs = [int(x * len(nodes)) for x in picks]
    # Always include the hotspot node and a fixed point, when any.
    hot = getattr(pattern, "hotspot", None)
    if hot is not None:
        srcs.append(index[hot])
    probe = make_rng(0)
    fixed = [i for i, u in enumerate(nodes) if pattern.draw(u, probe) == u]
    srcs += fixed[:1]
    rng_batch, rng_loop = make_rng(seed), make_rng(seed)
    got = pattern.draw_batch(np.asarray(srcs, dtype=np.int64), rng_batch)
    want = [index[pattern.draw(nodes[i], rng_loop)] for i in srcs]
    assert got.tolist() == want
    assert rng_batch.random() == rng_loop.random()


def test_patterns_list_nodes_in_topology_order():
    """draw_batch speaks node indices, so every pattern built on a
    topology must list its nodes in that topology's order."""
    for name, build in BUILDERS.items():
        pattern = build(make_rng(1))
        if name == "sim-permutation":
            assert pattern.nodes == [0, 1, 2, 3]
            continue
        topo = getattr(pattern, "topology", None)
        if topo is not None:
            assert pattern.nodes == list(topo.nodes()), name


def test_batch_drawer_falls_back_to_the_scalar_loop():
    """A duck-typed pattern, or one over another node order, is drawn
    with the scalar loop over the simulator's nodes."""

    class Mirror:
        def draw(self, src, rng):
            return 15 - src

    nodes = list(range(16))
    reordered = PermutationTraffic({u: 15 - u for u in reversed(nodes)}, "r")
    for pattern in (Mirror(), reordered):
        draw = batch_drawer(pattern, nodes)
        assert draw(np.arange(4), make_rng(0)).tolist() == [15, 14, 13, 12]
    assert batch_drawer(reordered, nodes) != reordered.draw_batch
    same_order = RandomTraffic(Hypercube(4))
    assert batch_drawer(same_order, nodes) == same_order.draw_batch
