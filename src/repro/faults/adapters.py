"""Fault-aware routing adapter and the engine-side fault injector.

:class:`FaultAwareRouting` wraps any
:class:`~repro.core.routing_function.RoutingAlgorithm` and filters its
hop relations through a live :class:`~repro.faults.models.FaultSet`:

* hops over dead links (or into/out of dead nodes) are withheld;
* hops that would use a buffer class the physical link does not carry
  are withheld too — once faults break the inner algorithm's phase
  invariants this *class realizability* check is what keeps offered
  hops executable by the node model;
* surviving **minimal** hops are preferred: if any inner static hop
  survives, only those are offered; if the statics are all dead but an
  inner dynamic hop survives, the packet rides adaptivity.  Surviving
  hops that move *away* from the destination in the faulted metric are
  withheld too — a healthy-minimal hop can walk straight back into a
  pocket whose only exit died, and repeatedly will (livelock);
* only when *every* inner hop is fault-blocked does the adapter offer
  greedy **detour** hops — live neighbors that still reach the
  destination, closest-first — which trades the paper's minimality and
  proven deadlock freedom for delivery (the honest downgrade is
  reported by :func:`verify_under_faults`, and the runtime watchdog
  guards the residual risk);
* a packet whose destination is unreachable over live links gets *no*
  hops at all: it parks where it is instead of wandering, and the
  watchdog counts it as undeliverable.

With an empty fault set every method returns the inner algorithm's
result object unchanged — the zero-overhead-when-healthy property
`tests/test_faults_adapter.py` pins down.

:class:`FaultInjector` is the engine observer that drives epochs: on
each cycle boundary it installs the scheduled fault set into both the
adapter and the engine (``dead_nodes``/``blocked_links``), retracts
packets stranded in the output buffers of newly-dead links, and tells
the compiled engine to drop its now-stale routing plans.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from ..core.hops import HopKernel
from ..core.queues import QueueId
from ..core.routing_function import RoutingAlgorithm
from ..core.verification import VerificationReport, verify_algorithm
from .models import EMPTY_FAULTS, FaultSchedule, FaultSet


class FaultAwareRouting(RoutingAlgorithm):
    """Wrap ``inner`` so its hop relations respect a live fault set.

    Parameters
    ----------
    inner:
        Any verified routing algorithm instance.
    faults:
        Initial fault set (default: healthy).  Swapped at epoch
        boundaries via :meth:`set_active`.
    detour:
        Offer greedy escape hops when every inner hop is fault-blocked.
        Disable to study pure filtering (packets then park as soon as
        their whole minimal hop set is dead).

    The adapter intentionally drops the inner algorithm's ``is_minimal``
    / ``is_fully_adaptive`` claims: under faults neither survives, and
    claiming them would make :func:`verify_under_faults` check the
    wrong things.
    """

    is_minimal = False
    is_fully_adaptive = False

    def __init__(
        self,
        inner: RoutingAlgorithm,
        faults: FaultSet | None = None,
        detour: bool = True,
    ):
        super().__init__(inner.topology)
        self.inner = inner
        self.detour = detour
        self.name = f"fault-aware({inner.name})"
        self.active: FaultSet = faults if faults is not None else EMPTY_FAULTS
        #: Per-epoch memo of detour hop sets keyed ``(q, dst)``.
        self._detour_memo: dict[tuple[QueueId, Hashable], frozenset] = {}
        #: Weak refs to RoutingTables layouts compiled against this
        #: adapter; their packed rows die with the epoch.
        self._layouts: list[weakref.ref] = []

    def set_active(self, faults: FaultSet | None) -> None:
        """Install the fault set of a new epoch."""
        self.active = faults if faults is not None else EMPTY_FAULTS
        self._detour_memo.clear()
        if self._layouts:
            live = []
            for ref in self._layouts:
                layout = ref()
                if layout is not None:
                    layout.clear_rows()
                    live.append(ref)
            self._layouts = live

    # ------------------------------------------------------------------
    # Structure and state: delegated untouched
    # ------------------------------------------------------------------
    def central_queue_kinds(self, node: Hashable) -> tuple[str, ...]:
        return self.inner.central_queue_kinds(node)

    def queue_specs(self, node: Hashable, central_capacity: int = 5):
        return self.inner.queue_specs(node, central_capacity)

    def buffer_class(self, q_from: QueueId, q_to: QueueId, dynamic: bool) -> str:
        return self.inner.buffer_class(q_from, q_to, dynamic)

    def buffer_classes(self, u: Hashable, v: Hashable) -> tuple[str, ...]:
        return self.inner.buffer_classes(u, v)

    def initial_state(self, src: Hashable, dst: Hashable) -> Any:
        return self.inner.initial_state(src, dst)

    def update_state(self, state: Any, q_from: QueueId, q_to: QueueId) -> Any:
        return self.inner.update_state(state, q_from, q_to)

    # ------------------------------------------------------------------
    # Hop filtering
    # ------------------------------------------------------------------
    def _usable(self, q: QueueId, q2: QueueId, dynamic: bool) -> bool:
        """Is the hop executable on the degraded physical network?"""
        u, w = q.node, q2.node
        if u == w or q2.is_delivery:
            return True
        fs = self.active
        if not fs.link_alive(u, w):
            return False
        # Class realizability: the link must physically carry the buffer
        # class this transition would use.  Inner invariants guarantee it
        # on a healthy network; detoured packets can violate it.
        cls = self.inner.buffer_class(q, q2, dynamic)
        return cls in self.inner.buffer_classes(u, w)

    def injection_targets(
        self, src: Hashable, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        targets = self.inner.injection_targets(src, dst, state)
        fs = self.active
        if not fs.any:
            return targets
        if src in fs.dead_nodes or src not in fs.reachable(self.topology, dst):
            return frozenset()  # park: never inject the undeliverable
        return targets

    def _toward(self, q: QueueId, q2: QueueId, dst: Hashable) -> bool:
        """Does the hop avoid *increasing* the faulted distance?

        Inner hops always decrease the healthy distance (the paper's
        algorithms are minimal), so allowing equal-or-decreasing
        faulted distance makes every offered hop strictly decrease the
        pair ``(faulted distance, healthy distance)`` — which is what
        rules out routing cycles under faults.  Internal moves (phase
        changes, delivery) are always allowed.
        """
        if q2.node == q.node or q2.is_delivery:
            return True
        dist = self.active.distances(self.topology, dst)
        here = dist.get(q.node)
        there = dist.get(q2.node)
        return there is not None and (here is None or there <= here)

    def static_hops(
        self, q: QueueId, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        inner_hops = self.inner.static_hops(q, dst, state)
        fs = self.active
        if not fs.any:
            return inner_hops
        if q.node not in fs.reachable(self.topology, dst):
            return frozenset()  # park: dst is cut off from here
        filtered = frozenset(
            q2
            for q2 in inner_hops
            if self._usable(q, q2, False) and self._toward(q, q2, dst)
        )
        if filtered:
            return filtered
        if not inner_hops:
            return inner_hops
        # Every static escape is dead.  Prefer surviving minimal dynamic
        # hops; detour only as the last resort.
        if self.dynamic_hops(q, dst, state):
            return frozenset()
        if self.detour:
            return self._detour_hops(q, dst)
        return frozenset()

    def dynamic_hops(
        self, q: QueueId, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        inner_hops = self.inner.dynamic_hops(q, dst, state)
        fs = self.active
        if not fs.any or not inner_hops:
            return inner_hops
        if q.node not in fs.reachable(self.topology, dst):
            return frozenset()
        return frozenset(
            q2
            for q2 in inner_hops
            if self._usable(q, q2, True) and self._toward(q, q2, dst)
        )

    def _detour_hops(
        self, q: QueueId, dst: Hashable
    ) -> frozenset[QueueId]:
        """Escape hops when every inner hop is fault-blocked.

        Candidates are central queues on live neighbors that (a) still
        reach ``dst`` over live links and (b) sit behind a buffer class
        the connecting link physically carries; among those, only the
        ones closest to ``dst`` in the *faulted* metric
        (:meth:`FaultSet.distances`) are offered — steering by the
        healthy distance can walk into a pocket whose minimal exit is
        dead and oscillate forever.  Greedy and memoized per epoch;
        state-oblivious, so it is meant for the stateless algorithms
        (hypercube, mesh).  Mixed with surviving minimal hops it can
        still revisit nodes in principle — that is exactly what the
        livelock watchdog exists for.
        """
        key = (q, dst)
        cached = self._detour_memo.get(key)
        if cached is not None:
            return cached
        fs = self.active
        topo = self.topology
        u = q.node
        dist = fs.distances(topo, dst)
        cands: list[tuple[int, QueueId]] = []
        for w in topo.neighbors(u):
            dw = dist.get(w)
            if dw is None or not fs.link_alive(u, w):
                continue
            classes = self.inner.buffer_classes(u, w)
            for kind in self.inner.central_queue_kinds(w):
                q2 = QueueId(w, kind)
                if self.inner.buffer_class(q, q2, False) not in classes:
                    continue
                cands.append((dw, q2))
        if cands:
            best = min(d for d, _ in cands)
            out = frozenset(q2 for d, q2 in cands if d == best)
        else:
            out = frozenset()
        self._detour_memo[key] = out
        return out

    def compile_hops(self, layout):
        """Epoch-gated pass-through of the inner algorithm's kernel.

        While the live fault set is empty the adapter's hop relations
        *are* the inner algorithm's, so the inner kernel's rows stay
        valid; under any active fault the gate declines every key and
        the symbolic filtering above takes over.  ``set_active``
        registers the layout so an epoch change drops its packed rows
        and memos (``clear_rows``) — engines that drive fault epochs
        must additionally invalidate their own per-message memos,
        exactly as
        :meth:`~repro.sim.compiled.CompiledPacketSimulator.invalidate_plans`
        already does.
        """
        if type(self) is not FaultAwareRouting:
            return None
        hook = getattr(self.inner, "compile_hops", None)
        inner_kernel = hook(layout) if hook is not None else None
        if inner_kernel is None:
            return None
        self._layouts.append(weakref.ref(layout))
        return _FaultGatedKernel(layout, self, inner_kernel)


class _FaultGatedKernel(HopKernel):
    """Delegate to the healthy inner kernel; decline under faults."""

    def __init__(self, layout, adapter: FaultAwareRouting, inner: HopKernel):
        self.t = layout
        self.adapter = adapter
        self.inner = inner
        self._epoch: FaultSet = adapter.active

    def _healthy(self) -> bool:
        fs = self.adapter.active
        if fs is not self._epoch:
            # New fault epoch: every packed row is stale.
            self._epoch = fs
            self.t.clear_rows()
        return not fs.any

    def central_row(self, qid: int, dst_i: int, sid: int):
        if not self._healthy():
            return None
        return self.inner.central_row(qid, dst_i, sid)

    def entry_row(self, qid: int, dst_i: int, sid: int):
        if not self._healthy():
            return None
        return self.inner.entry_row(qid, dst_i, sid)

    def injection_row(self, ui: int, dst_i: int, sid: int):
        if not self._healthy():
            return None
        return self.inner.injection_row(ui, dst_i, sid)

    def central_rows(self, qids, dsts, sids):
        if not self._healthy():
            return None
        return self.inner.central_rows(qids, dsts, sids)


class FaultInjector:
    """Engine observer that replays a :class:`FaultSchedule`.

    Attach (first, before any watchdog) to a simulator whose algorithm
    is the matching :class:`FaultAwareRouting` adapter.  On each epoch
    boundary it

    1. installs the new fault set into the adapter (routing view) and
       into the engine (``dead_nodes`` / ``blocked_links``),
    2. retracts packets sitting in the output buffers of newly-dead
       links back into a central queue of their node (over capacity if
       need be — retraction must not drop packets; packets inside a
       dead node are lost instead, which is the fail-stop semantics),
    3. invalidates the compiled engine's routing-plan cache, whose
       memos assumed the previous epoch's hop relations.

    Between boundaries ``on_cycle`` is two attribute loads and an
    identity check.  ``on_stall`` suppresses the engine's deadlock alarm
    while a scheduled change is still ahead (a transient stall window
    can legitimately freeze traffic for longer than ``stall_limit``).
    """

    def __init__(self, schedule: FaultSchedule, adapter: FaultAwareRouting):
        self.schedule = schedule
        self.adapter = adapter
        self._current: FaultSet | None = None

    def on_cycle(self, sim, cycle: int) -> None:
        fs = self.schedule.at(cycle)
        if fs is self._current:
            return
        previous = self._current
        self._current = fs
        self.adapter.set_active(fs)
        sim.dead_nodes = fs.dead_nodes
        sim.blocked_links = fs.blocked_links
        if fs.dead_links:
            self._retract(sim, fs, previous)
        invalidate = getattr(sim, "invalidate_plans", None)
        if invalidate is not None:
            invalidate()

    def on_stall(self, sim) -> bool:
        if self.schedule.next_change_after(sim.cycle) is not None:
            # A scheduled transition (e.g. stall recovery) is still
            # ahead; reset the progress clock and keep running.
            sim._last_progress = sim.cycle
            return True
        return False

    def _retract(
        self, sim, fs: FaultSet, previous: FaultSet | None
    ) -> None:
        """Pull committed packets out of newly-dead links' out-buffers.

        A packet already in the output buffer of a link that just died
        would otherwise sit there forever.  Fail-stop hardware would
        requeue it from the sender's buffer memory, so we put it back
        into a central queue at the sender — kind matched to its
        intended target queue when that kind exists locally.  The queue
        may momentarily exceed its capacity; the node simply drains it
        first.  Packets inside a dead *node* (including its buffers)
        are not retracted: they are lost with the node.
        """
        old_dead = previous.dead_links if previous is not None else frozenset()
        for (u, v, cls), msg in sim.out_buf.items():
            if msg is None or (u, v) not in fs.dead_links:
                continue
            if (u, v) in old_dead or u in fs.dead_nodes:
                continue
            sim.out_buf[(u, v, cls)] = None
            queues = sim.central[u]
            kind = msg.target.kind if msg.target is not None else None
            if kind not in queues:
                kind = next(iter(queues))
            if msg.hops and msg.target is not None and msg.hops[-1] == msg.target:
                msg.hops.pop()  # the hop never physically happened
            msg.target = None
            queues[kind].append(msg)
            if sim._events is not None:
                sim._events.append(
                    ("enqueue", sim.cycle, msg.uid, u, kind)
                )


@dataclass
class FaultVerification:
    """What :func:`verify_under_faults` learned about a degraded instance."""

    faults: FaultSet
    report: VerificationReport
    #: ``(src, dst)`` pairs with no live route at all; packets between
    #: them are undeliverable no matter the routing algorithm.
    unreachable_pairs: list[tuple[Hashable, Hashable]] = field(
        default_factory=list
    )

    @property
    def degraded(self) -> bool:
        """The Section-2 guarantees no longer all hold."""
        return not self.report.deadlock_free or bool(self.unreachable_pairs)

    @property
    def witnesses(self) -> list:
        """Minimal cycle witnesses, when the degraded static QDG is
        cyclic.  These come straight from the static analyzer's witness
        builder (``repro.statics.witness``) via ``verify_algorithm`` —
        the faults layer no longer derives its own cycle evidence.
        """
        return self.report.witnesses

    def summary(self) -> str:
        base = self.report.summary()
        if self.unreachable_pairs:
            base += f"; {len(self.unreachable_pairs)} unreachable (src,dst) pair(s)"
        if self.witnesses:
            base += "; " + "; ".join(w.describe() for w in self.witnesses)
        return f"[{self.faults.describe()}] {base}"


def verify_under_faults(
    algorithm: RoutingAlgorithm,
    faults: FaultSet,
    destinations: Iterable[Hashable] | None = None,
    detour: bool = True,
    **kwargs,
) -> FaultVerification:
    """Re-run the Section-2 verifier against the *faulted* instance.

    Wraps ``algorithm`` in :class:`FaultAwareRouting` pinned at
    ``faults`` and applies :func:`~repro.core.verification.verify_algorithm`
    to the degraded queue dependency graph.  The point is honesty, not
    reassurance: a fault set that severs a minimal-path invariant will
    (and should) fail conditions the healthy instance passed — most
    commonly ``no_dead_ends``, because the adapter withholds dead static
    escapes — and destinations cut off entirely are listed as
    ``unreachable_pairs``.  Minimality/full-adaptivity claims are
    dropped outright (see :class:`FaultAwareRouting`).
    """
    if isinstance(algorithm, FaultAwareRouting):
        adapter = algorithm
        if adapter.active is not faults:
            adapter.set_active(faults)
    else:
        adapter = FaultAwareRouting(algorithm, faults, detour=detour)
    topo = adapter.topology
    nodes = list(topo.nodes())
    dsts = list(destinations) if destinations is not None else nodes
    unreachable: list[tuple[Hashable, Hashable]] = []
    for dst in dsts:
        reach = faults.reachable(topo, dst)
        for src in nodes:
            if src != dst and src not in reach:
                unreachable.append((src, dst))
    report = verify_algorithm(
        adapter,
        destinations=destinations,
        check_minimal=False,
        check_fully_adaptive=False,
        **kwargs,
    )
    return FaultVerification(
        faults=faults, report=report, unreachable_pairs=unreachable
    )
