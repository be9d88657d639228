"""Integer hop kernels: the ``compile_hops()`` compilation target.

The routing functions of this repo are *pure*: every candidate set is a
deterministic function of ``(queue, destination, state)``.  The generic
engines evaluate them symbolically (frozensets of
:class:`~repro.core.queues.QueueId`), and
:class:`~repro.sim.plans.RoutingPlanCache` memoizes the resolved
answer — but the memo-miss path still allocates Python objects, which
is what bounds the vector engine under saturated traffic
(docs/PERFORMANCE.md).  A *hop kernel* is the same hop relation
re-expressed directly over the dense integer identifiers of
:class:`~repro.sim.tables.RoutingTables`, so a row miss costs integer
arithmetic instead of frozenset/QueueId churn.

Contract (see docs/ARCHITECTURE.md, "Table compilation"):

* :meth:`HopKernel.central_row`, :meth:`HopKernel.entry_row` and
  :meth:`HopKernel.injection_row` must return *exactly* the rows the
  plan-cache translation in :class:`~repro.sim.tables.RoutingTables`
  would build — same candidate order (statics before dynamics,
  first-wins per physical buffer, external candidates slot-ascending),
  same entry fold, same injection order — because engines and the
  static analyzer consume both paths interchangeably;
* any method may return ``None`` for any key: the caller falls back to
  the plan-cache translation for that row.  Kernels use this to decline
  keys whose symbolic evaluation raises intentionally (exhausted
  shuffle counters, off-network Benes injections), so error messages
  stay byte-identical with the generic engines;
* :meth:`HopKernel.central_rows` is the optional batched form of
  :meth:`HopKernel.central_row`: it builds the packed rows for a whole
  batch of keys, entry fold included, or returns ``None`` to decline
  the batch — the caller then builds those rows one at a time;
  :meth:`HopKernel.injection_rows` is the same for the injection rows
  of a batch of fresh packets;
* a ``compile_hops()`` implementation must return ``None`` (no kernel)
  whenever it cannot vouch for identity — unknown subclass, unexpected
  topology, inhomogeneous queue structure.  Fallback is always safe.

:class:`TableHopKernel` implements the generic row assembly (first-wins
slot filtering, the entry fold, injection resolution) on top of two
per-algorithm primitives — :meth:`TableHopKernel.candidates` and
:meth:`TableHopKernel.inject_candidates` — so an algorithm's kernel
only re-states its hop relation, not the engine semantics.  A
closed-form family may also state its relation as a numpy primitive,
:meth:`TableHopKernel.batch_candidates`, and the base class then
assembles whole batches of packed rows (:meth:`central_rows`) with a
few array operations per batch.

This module also owns the internal-step action codes shared by the
plan cache and the kernels (``sim.plans`` re-exports them for
backwards compatibility).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .routing_function import DYNAMIC_CLASS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports core)
    from ..sim.tables import RoutingTables

__all__ = [
    "DELIVER_STEP",
    "SELF_STEP",
    "MOVE_STEP",
    "NO_CANDIDATE",
    "HopKernel",
    "TableHopKernel",
]

#: Internal-step action codes (shared by plan cache, tables and kernels).
DELIVER_STEP = 0  #: move to the delivery queue
SELF_STEP = 1  #: degenerate self-hop: state advances in place
MOVE_STEP = 2  #: move into a sibling central queue (capacity permitting)

#: Empty cell of a :meth:`TableHopKernel.batch_candidates` matrix.
NO_CANDIDATE = -2


class HopKernel:
    """Base class for compiled hop relations.

    Subclasses override the three row methods; each may return ``None``
    per key to decline (the caller falls back to the plan-cache
    translation, which must then produce the identical row or raise the
    identical error the symbolic evaluation would).
    """

    def central_row(self, qid: int, dst_i: int, sid: int):
        return None

    def entry_row(self, qid: int, dst_i: int, sid: int):
        return None

    def injection_row(self, ui: int, dst_i: int, sid: int):
        return None

    def central_rows(self, qids, dsts, sids):
        """Packed central rows for a batch of distinct keys, or ``None``.

        Returns ``(slots, queues, states, dyn, entq, entst, internal)``:
        six ``(len(qids), width)`` int arrays holding, per key, what
        :meth:`~repro.sim.tables.RoutingTables.central_rid` packs into
        the ``row_*`` arrays (external candidates left-packed
        slot-ascending, entry-resolved landing queue/state, padded with
        ``n_slots`` / ``-1`` / ``0`` / ``0`` / ``-1`` / ``0``), and a
        list of the internal-step tuples.  ``None`` declines the whole
        batch: the caller builds the rows one key at a time.
        """
        return None

    def injection_rows(self, uis, dsts, sids):
        """Singleton injection rows of a batch, or ``None``.

        Returns ``(queues, states)``: per key, the one landing queue
        and state of :meth:`injection_row`, entry fold included.  Only
        a family whose every injection row has exactly one target may
        answer; ``None`` declines the whole batch.
        """
        return None


class TableHopKernel(HopKernel):
    """Generic row assembly over per-algorithm integer primitives.

    A subclass states the raw hop relation via

    * :meth:`candidates` — ``(static, dynamic)`` sequences of
      ``(next_queue_gid, new_state_id)`` pairs (``-1`` for the delivery
      queue), *before* slot filtering, in the same candidate order the
      symbolic ``static_hops`` / ``dynamic_hops`` would surface them;
    * :meth:`inject_candidates` — injection targets in the reference
      engine's ``sorted(targets)`` order, with the injection
      ``update_state`` already applied;

    and this base class replays the engine semantics: first-wins per
    ``(neighbor, class)``, drop candidates without a physical buffer
    *after* first-wins, external candidates slot-ascending, the
    forced-phase-switch entry fold, injection entry resolution.

    Requires a *homogeneous* queue structure (same
    ``central_queue_kinds`` tuple at every node) so global queue ids
    factor as ``node_index * n_kinds + kind_index``; construction sets
    :attr:`ok` False otherwise and ``compile_hops()`` should then
    return ``None``.

    A subclass that also sets :attr:`n_ports` and implements
    :meth:`batch_candidates`, :meth:`batch_local` and
    :meth:`batch_ports` gets the batched :meth:`central_rows`: the same
    assembly on ``(keys, candidates)`` arrays; with :meth:`batch_local`
    and :meth:`batch_inject` it gets the batched
    :meth:`injection_rows`.  Any other subclass declines every batch.
    """

    #: Ports per node of the :meth:`batch_candidates` layout (0: none).
    n_ports = 0

    def __init__(self, layout: "RoutingTables"):
        self.t = layout
        n = len(layout.nodes)
        nk = len(layout.node_qids[0]) if n else 0
        kinds = tuple(layout.queue_kind[:nk])
        self.nk = nk
        self.kinds = kinds
        self.ok = (
            nk > 0
            and len(layout.queue_kind) == nk * n
            and layout.queue_kind == list(kinds) * n
        )
        self._slots_by_port: np.ndarray | None = None

    # -- per-algorithm primitives --------------------------------------
    def candidates(self, qid: int, dst_i: int, sid: int):
        """``(static, dynamic)`` candidate pairs, or ``None`` to decline."""
        raise NotImplementedError

    def inject_candidates(self, ui: int, dst_i: int, sid: int):
        """Injection ``(queue_gid, state_id)`` pairs, or ``None``."""
        raise NotImplementedError

    def batch_candidates(self, qids, dsts):
        """Candidate matrix of a batch of keys, or ``None`` to decline.

        An ``(m, 1 + 2 * n_ports)`` int array of next-queue gids whose
        columns are the candidate order: column 0 the candidate that
        stays inside the node (``-1`` for the delivery queue, else a
        central queue of the same node) — which, when present, must be
        the key's only candidate — column ``1 + p`` the static
        candidate through port ``p``, column ``1 + n_ports + p`` the
        dynamic candidate through port ``p``; empty cells hold
        :data:`NO_CANDIDATE`.  Every candidate keeps its key's state
        (the closed-form families carry none).
        """
        return None

    def batch_local(self, qids, dsts):
        """Column 0 of :meth:`batch_candidates` on its own: all the
        batched entry fold needs, so worth a cheaper closed form."""
        raise NotImplementedError

    def batch_ports(self, src, dst):
        """Port of each directed link ``src[i] -> dst[i]`` (int array).

        Ports must be distinct among one node's links.
        """
        raise NotImplementedError

    def batch_inject(self, uis, dsts):
        """The one injection target (queue gid) of each fresh packet
        ``uis[i] -> dsts[i]``, state unchanged; or ``None`` to decline."""
        return None

    # -- generic row assembly ------------------------------------------
    def central_row(self, qid: int, dst_i: int, sid: int):
        cands = self.candidates(qid, dst_i, sid)
        if cands is None:
            return None
        t = self.t
        statics, dynamics = cands
        queue_node = t.queue_node
        queue_kind = t.queue_kind
        slot_of = t.slot_of
        ui = queue_node[qid]
        ext: list[tuple[int, int, int, int]] = []
        internal: list[tuple[int, int, int]] = []
        seen: set[tuple[int, str]] | None = None
        for dyn, cl in ((0, statics), (1, dynamics)):
            for q2, nsid in cl:
                if q2 < 0:
                    internal.append((DELIVER_STEP, -1, sid))
                    continue
                vi = queue_node[q2]
                if vi == ui:
                    if q2 == qid:
                        internal.append((SELF_STEP, q2, nsid))
                    else:
                        internal.append((MOVE_STEP, q2, nsid))
                    continue
                cls = DYNAMIC_CLASS if dyn else queue_kind[q2]
                key = (vi, cls)
                if seen is None:
                    seen = {key}
                elif key in seen:
                    continue  # first-wins per (neighbor, class)
                else:
                    seen.add(key)
                s = slot_of.get((ui, vi, cls))
                if s is not None:
                    ext.append((s, q2, nsid, dyn))
        ext.sort()
        return (
            tuple(c[0] for c in ext),
            tuple(c[1] for c in ext),
            tuple(c[2] for c in ext),
            tuple(c[3] for c in ext),
            tuple(internal),
        )

    def entry_row(self, qid: int, dst_i: int, sid: int):
        # The forced-phase-switch fold of RoutingPlanCache._resolve_entry.
        queue_node = self.t.queue_node
        node = queue_node[qid]
        for _ in range(8):  # bounded by the internal-chain length
            cands = self.candidates(qid, dst_i, sid)
            if cands is None:
                return None
            statics, dynamics = cands
            if dynamics or len(statics) != 1:
                break
            q2, nsid = statics[0]
            if q2 < 0 or q2 == qid or queue_node[q2] != node:
                break
            qid, sid = q2, nsid
        return (qid, sid)

    def injection_row(self, ui: int, dst_i: int, sid: int):
        cl = self.inject_candidates(ui, dst_i, sid)
        if cl is None:
            return None
        out = []
        for q2, nsid in cl:
            resolved = self.entry_row(q2, dst_i, nsid)
            if resolved is None:
                return None
            out.append(resolved)
        return tuple(out)

    # -- batched row assembly ------------------------------------------
    def injection_rows(self, uis, dsts, sids):
        targets = self.batch_inject(uis, dsts)
        if targets is None:
            return None
        return self._fold_entries(targets, dsts), sids

    def _slot_table(self) -> np.ndarray:
        """``(node, port, class) -> slot`` (-1: no buffer), built once.

        Class codes are the kind indices, then ``n_kinds`` for the
        dynamic class; buffers of any other class are never a
        candidate's and stay out of the table.
        """
        table = self._slots_by_port
        if table is None:
            t = self.t
            src = np.asarray(t.slot_src, dtype=np.int64)
            dst = np.asarray(t.slot_dst, dtype=np.int64)
            names = np.asarray(t.slot_cls)
            cls = np.full(len(src), -1, dtype=np.int64)
            for code, name in enumerate(self.kinds + (DYNAMIC_CLASS,)):
                cls[names == name] = code
            keep = np.flatnonzero(cls >= 0)
            table = np.full(
                (len(t.nodes), self.n_ports, self.nk + 1), -1, dtype=np.int32
            )
            ports = self.batch_ports(src[keep], dst[keep])
            table[src[keep], ports, cls[keep]] = keep
            self._slots_by_port = table
        return table

    def central_rows(self, qids, dsts, sids):
        cq = self.batch_candidates(qids, dsts)
        if cq is None:
            return None
        nk = self.nk
        n_ports = self.n_ports
        pad = self.t.n_slots
        m = len(qids)

        # Slot of every port candidate; none or no buffer -> pad.
        via = cq[:, 1:]
        cls = via % nk
        cls[:, n_ports:] = nk  # dynamic candidates use the dynamic class
        ports = np.arange(2 * n_ports) % n_ports
        found = self._slot_table()[(qids // nk)[:, None], ports, cls]
        slot = np.where((via != NO_CANDIDATE) & (found >= 0), found, pad)

        # Slot-ascending left-packing.  First-wins per (neighbor,
        # class) never drops anything here: a port is one neighbor and
        # static and dynamic columns differ in class, so every cell of
        # a row names its own (neighbor, class) pair.
        order = slot.argsort(axis=1)
        rows = np.arange(m)[:, None]
        slots = slot[rows, order]
        live = slots < pad
        counts = live.sum(axis=1)
        width = int(counts.max())
        order = order[:, :width]
        slots = slots[:, :width]
        live = live[:, :width]
        queues = np.where(live, via[rows, order], -1)
        states = np.where(live, sids[:, None], 0)
        dyn = (live & (order >= n_ports)).astype(np.int64)
        entq = np.full_like(queues, -1)
        entq[live] = self._fold_entries(
            queues[live], np.repeat(dsts, counts)
        )

        internal: list[tuple] = [()] * m
        loc = np.flatnonzero(cq[:, 0] != NO_CANDIDATE)
        if loc.size:
            q2 = cq[loc, 0]
            action = np.where(
                q2 < 0,
                DELIVER_STEP,
                np.where(q2 == qids[loc], SELF_STEP, MOVE_STEP),
            )
            steps = zip(action.tolist(), q2.tolist(), sids[loc].tolist())
            for i, step in zip(loc.tolist(), steps):
                internal[i] = (step,)
        return slots, queues, states, dyn, entq, states, internal

    def _fold_entries(self, qids, dsts):
        """The queue half of :meth:`entry_row` on arrays (states never
        change in a batch).

        A key folds when its candidate in column 0 is a sibling queue
        (it is then the key's only candidate).
        """
        qids = qids.copy()
        act = np.arange(len(qids))
        for _ in range(8):  # the bound of entry_row
            if not act.size:
                break
            qa = qids[act]
            local = self.batch_local(qa, dsts[act])
            move = (local >= 0) & (local != qa)
            act = act[move]
            qids[act] = local[move]
        return qids
