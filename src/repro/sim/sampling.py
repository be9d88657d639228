"""Seeded arrival/destination sampling shared by injection models.

Two call sites need the same primitive — "which nodes fire a packet
this cycle, and to where": the closed-loop
:class:`~repro.sim.injection.DynamicInjection` model (paper, Section 7)
and the open-loop workload driver of the streaming traffic service
(:mod:`repro.serve.workloads`).  Both must consume the RNG in exactly
the same order, because byte-identical replays across engines hinge on
identical draw sequences; keeping the logic in one place makes that a
structural property instead of a copy-paste invariant.

Also here: the user-count distributions of the serving scenarios
(Poisson / normal / log-normal), parameterized by *mean* (and variance
where it applies) so a load shape can scale the mean without changing
the distribution family.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable

import numpy as np

from .traffic import TrafficPattern, draw_loop

#: ``draw(src_idx, rng) -> dst_idx``: a batched destination draw.
BatchDraw = Callable[[np.ndarray, np.random.Generator], np.ndarray]

#: Distribution names accepted for user-count sampling.
USER_DISTRIBUTIONS = ("poisson", "normal", "log_normal")


def bernoulli_fires(
    n_nodes: int, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Indices of the nodes that attempt an injection this cycle
    (Bernoulli(rate) each), ascending.

    ``rate >= 1`` short-circuits to *every* node without consuming any
    RNG, matching the saturated fast path the paper's ``lambda = 1``
    runs always took; otherwise exactly one ``rng.random(n_nodes)``
    vector is drawn, preserving :class:`DynamicInjection`'s historical
    draw sequence byte for byte.
    """
    if rate >= 1.0:
        return np.arange(n_nodes)
    if rate <= 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(rng.random(n_nodes) < rate)


def draw_arrivals(
    n_nodes: int,
    rate: float,
    draw: BatchDraw,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One cycle of seeded arrival offers as ``(srcs, dsts)`` node-index
    arrays, in firing-node order.

    Destinations come from one batched ``draw`` (see
    :func:`batch_drawer`) over the firing nodes, after the single
    Bernoulli vector: the RNG stream of one ``pattern.draw`` per firing
    node, which is the closed-loop model's historical consumption
    order.  Fixed points (``dst == src``) are filtered out here —
    patterns return them to mean "this node stays silent".
    """
    srcs = bernoulli_fires(n_nodes, rate, rng)
    dsts = draw(srcs, rng)
    keep = dsts != srcs
    return srcs[keep], dsts[keep]


def batch_drawer(pattern, nodes: list[Hashable]) -> BatchDraw:
    """The batched destination draw of ``pattern`` over ``nodes``.

    ``pattern.draw_batch`` when the pattern is a
    :class:`~repro.sim.traffic.TrafficPattern` over exactly these
    nodes in this order (its indices are then the simulator's);
    otherwise — any other node order, or a duck-typed pattern with
    only ``draw`` — the scalar ``draw`` loop over ``nodes``.
    """
    if (
        isinstance(pattern, TrafficPattern)
        and getattr(pattern, "nodes", None) == nodes
    ):
        return pattern.draw_batch
    index = {u: i for i, u in enumerate(nodes)}
    return lambda src_idx, rng: draw_loop(pattern, nodes, index, src_idx, rng)


def draw_user_count(
    distribution: str,
    mean: float,
    variance: float | None,
    rng: np.random.Generator,
) -> int:
    """One sample of an active-user count (non-negative integer).

    ``poisson`` ignores ``variance`` (it equals the mean by
    definition); ``normal`` draws N(mean, variance) clipped at zero;
    ``log_normal`` solves the underlying ``mu``/``sigma`` so the
    *arithmetic* mean and variance of the samples match the configured
    ones.  ``mean <= 0`` yields 0 without consuming RNG only when the
    distribution could never produce a positive count.
    """
    if distribution == "poisson":
        return int(rng.poisson(max(0.0, mean)))
    if variance is None:
        variance = mean
    if distribution == "normal":
        sigma = math.sqrt(max(0.0, variance))
        return max(0, int(round(rng.normal(mean, sigma))))
    if distribution == "log_normal":
        if mean <= 0.0:
            return 0
        sigma2 = math.log(1.0 + max(0.0, variance) / (mean * mean))
        mu = math.log(mean) - sigma2 / 2.0
        return max(0, int(round(rng.lognormal(mu, math.sqrt(sigma2)))))
    raise ValueError(
        f"unknown user-count distribution {distribution!r}; expected one "
        f"of {USER_DISTRIBUTIONS}"
    )
