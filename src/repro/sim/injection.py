"""Injection models (paper, Section 7).

* **Static injection**: every node holds an a-priori fixed number of
  packets (1 or ``n`` in the paper); the run ends when all packets are
  delivered.
* **Dynamic injection**: in every cycle each node attempts, with
  probability ``lambda``, to place a packet in its injection queue;
  the attempt fails (and is counted as such) if the queue is still
  occupied.  The paper runs ``lambda = 1``.

Injection models only decide *when a node generates a packet and for
which destination*; the engine owns queue capacities and movement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..core.message import take_uids
from .sampling import batch_drawer, draw_arrivals
from .traffic import TrafficPattern

if TYPE_CHECKING:  # pragma: no cover
    from .engine import PacketSimulator


class InjectionModel(ABC):
    """Generates packets into the simulator's injection queues.

    Models speak node indices (into ``sim.nodes``) and hand each
    cycle's packets to the engine in one
    ``sim.place_in_injection_queue(srcs, dsts, cycle)`` call; the
    engine builds whatever per-packet state it keeps.
    """

    name: str = "injection"

    def setup(self, sim: "PacketSimulator") -> None:
        """Called once before the first cycle."""

    @abstractmethod
    def attempt(self, sim: "PacketSimulator", cycle: int) -> None:
        """Called at the start of every cycle; may inject packets."""

    @abstractmethod
    def finished(self, sim: "PacketSimulator", cycle: int) -> bool:
        """Whether the run should stop after this cycle."""


class StaticInjection(InjectionModel):
    """``packets_per_node`` packets per node, all present at time 0.

    The node feeds its (size-1) injection queue from the backlog as
    soon as the queue drains; packets time-stamp their injection when
    they enter the injection queue.  Packet ids are reserved at setup,
    in generation order (node by node).
    """

    def __init__(
        self,
        packets_per_node: int,
        pattern: TrafficPattern,
        rng: np.random.Generator,
    ):
        if packets_per_node < 1:
            raise ValueError("packets_per_node must be >= 1")
        self.packets_per_node = packets_per_node
        self.pattern = pattern
        self.rng = rng
        self.name = f"static({packets_per_node})"
        self.total = 0

    def setup(self, sim: "PacketSimulator") -> None:
        n = len(sim.nodes)
        srcs = np.repeat(np.arange(n), self.packets_per_node)
        dsts = batch_drawer(self.pattern, sim.nodes)(srcs, self.rng)
        keep = dsts != srcs  # fixed points: the node stays silent
        srcs = srcs[keep]
        #: Generated packets, node-major in generation order.
        self.dsts = dsts[keep]
        self.total = len(srcs)
        self.uids = np.asarray(take_uids(self.total), dtype=np.int64)
        #: Per node: index of its next packet, and one past its last.
        self.next = np.searchsorted(srcs, np.arange(n))
        self.stop = np.searchsorted(srcs, np.arange(n), side="right")

    def pending(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(node index, destination indices)`` of the packets each
        node still holds back, for every node holding any."""
        for ui in np.flatnonzero(self.next < self.stop).tolist():
            yield ui, self.dsts[self.next[ui] : self.stop[ui]]

    def attempt(self, sim: "PacketSimulator", cycle: int) -> None:
        waiting = self.next < self.stop
        if not waiting.any():
            return
        ready = np.flatnonzero(waiting & sim.injection_free_mask())
        if ready.size:
            k = self.next[ready]
            self.next[ready] += 1
            sim.place_in_injection_queue(
                ready, self.dsts[k], cycle, uids=self.uids[k]
            )

    def finished(self, sim: "PacketSimulator", cycle: int) -> bool:
        return sim.delivered_count >= self.total


class DynamicInjection(InjectionModel):
    """Bernoulli(lambda) injection attempts, fixed run length.

    ``duration`` is the total number of cycles; attempts and successes
    are counted from ``warmup`` onwards so the reported effective
    injection rate reflects steady state.
    """

    def __init__(
        self,
        rate: float,
        pattern: TrafficPattern,
        rng: np.random.Generator,
        duration: int,
        warmup: int = 0,
    ):
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if warmup >= duration:
            raise ValueError("warmup must be shorter than the run")
        self.rate = rate
        self.pattern = pattern
        self.rng = rng
        self.duration = duration
        self.warmup = warmup
        self.name = f"dynamic(lambda={rate})"
        self.attempts = 0
        self.successes = 0

    def setup(self, sim: "PacketSimulator") -> None:
        self._draw = batch_drawer(self.pattern, sim.nodes)

    def attempt(self, sim: "PacketSimulator", cycle: int) -> None:
        # The shared sampler consumes the RNG exactly as this model
        # always has: one random() vector, then the pattern's draws for
        # the firing nodes in node order.
        srcs, dsts = draw_arrivals(
            len(sim.nodes), self.rate, self._draw, self.rng
        )
        free = sim.injection_free_mask()[srcs]
        if cycle >= self.warmup:
            self.attempts += len(srcs)
            self.successes += int(free.sum())
        if free.any():
            sim.place_in_injection_queue(srcs[free], dsts[free], cycle)

    def finished(self, sim: "PacketSimulator", cycle: int) -> bool:
        return cycle + 1 >= self.duration
