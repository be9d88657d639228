"""Integer routing tables: the vector engine's compilation layer.

:class:`RoutingTables` lowers one
:class:`~repro.core.routing_function.RoutingAlgorithm` — *any*
algorithm, on any topology — onto dense integer identifiers so an
engine can run the paper's node cycle without hashing a single label
object on the hot path:

* nodes are interned ``0..N-1`` in ``topology.nodes()`` order (the
  reference engine's node order);
* central queues get global ids ``0..n_queues-1``, node-major in
  ``central_queue_kinds`` order;
* link buffers get global *slot* ids, node-major and low-to-high
  ``link_index`` within a node, classes in ``buffer_classes`` order —
  so slot-ascending order **is** the reference engine's output-buffer
  fill order, and slot-ascending order per receiving node **is** the
  reference engine's input-buffer rotation order;
* routing states are interned lazily to small ints (states must be
  hashable; :class:`EngineCapabilityError` otherwise — the reference
  and compiled engines remain available for unhashable-state
  algorithms).

On top of the static structure, three lazily-memoized row tables mirror
:class:`~repro.sim.plans.RoutingPlanCache` (which this class wraps, so
the first-wins external-candidate semantics, statics-before-dynamics
order and the forced-phase-switch entry fold are *the same code* the
compiled engine trusts):

* :meth:`central_row` — ``(queue, dst, state) ->`` parallel tuples of
  external candidates (slot / next queue / next state / dynamic flag,
  slot-ascending) plus internal ``(action, queue, state)`` steps;
* :meth:`entry_row` — where a packet nominally heading for a queue
  actually lands after the entry fold;
* :meth:`injection_row` — resolved injection targets in the reference
  engine's ``sorted(targets)`` order; :meth:`injection_rows` resolves
  a whole placement batch (closed form for the hypercube and mesh
  kernels, which leave no memo entries).

The batched engine reads central rows by *row id* through
:meth:`central_rids`, which builds all of a call's missing rows at once
through the kernel's batched ``central_rows`` when it has one (the
hypercube and mesh kernels) and packs them straight into the row
arrays, without memo entries; other kernels decline and the misses are
built one at a time.

Rows contain only ints, so the engine's per-message work is integer
compares and array indexing; identity with the reference engine is
established by ``tests/test_sim_vector.py``.
"""

from __future__ import annotations

import time
from typing import Any, Hashable

import numpy as np

from ..core.queues import QueueId
from ..core.routing_function import RoutingAlgorithm
from .plans import DELIVER_STEP, SELF_STEP, RoutingPlanCache

__all__ = ["EngineCapabilityError", "RoutingTables"]

#: Ceiling on the dense ``(queue, dst)`` row-id index (cells); larger
#: networks fall back to a dict-keyed row-id map.
_DENSE_ROWID_CELLS = 16_777_216


class EngineCapabilityError(TypeError):
    """A requested engine cannot run the requested configuration.

    Raised with a message that names the limitation and the engines
    that do support the configuration (see the engine matrix in
    ``docs/ARCHITECTURE.md``).
    """


class RoutingTables:
    """Dense integer lowering of one routing algorithm + topology.

    One instance may be shared by several
    :class:`~repro.sim.vector.VectorSimulator` objects built around the
    *same* algorithm instance (rows are pure functions of
    ``(queue, dst, state)``), mirroring how
    :class:`~repro.sim.plans.RoutingPlanCache` is shared by compiled
    simulators.
    """

    def __init__(self, algorithm: RoutingAlgorithm, use_kernel: bool = True):
        t_start = time.perf_counter()
        self.algorithm = algorithm
        self.plans = RoutingPlanCache(algorithm)
        topo = algorithm.topology

        # ---- node interning (reference engine node order) -------------
        self.nodes: list[Hashable] = list(topo.nodes())
        self.nid: dict[Hashable, int] = {u: i for i, u in enumerate(self.nodes)}
        n = len(self.nodes)

        # ---- central queues: global ids, node-major ----------------------
        self.node_qids: list[list[int]] = []
        self.queue_node: list[int] = []
        self.queue_kind: list[str] = []
        self.qid_of: dict[tuple[int, str], int] = {}
        for ui, u in enumerate(self.nodes):
            ids = []
            for kind in algorithm.central_queue_kinds(u):
                qid = len(self.queue_node)
                self.qid_of[(ui, kind)] = qid
                self.queue_node.append(ui)
                self.queue_kind.append(kind)
                ids.append(qid)
            self.node_qids.append(ids)
        self.n_queues = len(self.queue_node)
        #: Interned QueueId per global queue id (for row construction).
        self.queue_objs: list[QueueId] = [
            QueueId(self.nodes[self.queue_node[q]], self.queue_kind[q])
            for q in range(self.n_queues)
        ]

        # ---- link buffer slots: global ids, node-major, low-to-high ----
        self.slot_src: list[int] = []
        self.slot_dst: list[int] = []
        self.slot_cls: list[str] = []
        self.slot_of: dict[tuple[int, int, str], int] = {}
        self.node_out_start: list[int] = []
        self.node_out_count: list[int] = []
        #: ``(u_label, v_label) -> classes`` in reference insertion order
        #: (telemetry probes read ``len(sim.link_classes)``).
        self.link_classes: dict[tuple, tuple[str, ...]] = {}
        link_slot_lists: dict[int, list[list[int]]] = {}
        for ui, u in enumerate(self.nodes):
            self.node_out_start.append(len(self.slot_src))
            nbrs = sorted(
                topo.neighbors(u), key=lambda v: topo.link_index(u, v)
            )
            for v in nbrs:
                classes = algorithm.buffer_classes(u, v)
                self.link_classes[(u, v)] = classes
                vi = self.nid[v]
                slots = []
                for cls in classes:
                    s = len(self.slot_src)
                    self.slot_of[(ui, vi, cls)] = s
                    self.slot_src.append(ui)
                    self.slot_dst.append(vi)
                    self.slot_cls.append(cls)
                    slots.append(s)
                link_slot_lists.setdefault(len(slots), []).append(slots)
            self.node_out_count.append(
                len(self.slot_src) - self.node_out_start[-1]
            )
        self.n_slots = len(self.slot_src)

        # Input-side view: reference ``in_keys[v]`` appends in outer
        # sender-node order, so it equals "slots with slot_dst == v,
        # ascending global slot id".
        self.node_in_slots: list[list[int]] = [[] for _ in range(n)]
        self.slot_in_pos: list[int] = [0] * self.n_slots
        for s in range(self.n_slots):
            vi = self.slot_dst[s]
            self.slot_in_pos[s] = len(self.node_in_slots[vi])
            self.node_in_slots[vi].append(s)

        #: Directed links grouped by class count ``k``: an ``(L, k)``
        #: int array of slot ids per group.  Per-link class rotation is
        #: ``cycle % k``, exactly the reference engine's ``rotated``.
        self.link_groups: dict[int, np.ndarray] = {
            k: np.asarray(v, dtype=np.int64)
            for k, v in link_slot_lists.items()
        }

        # ---- state interning + row memos -------------------------------
        self.states: list[Any] = []
        self._state_ids: dict[Any, int] = {}
        self._central: dict[tuple[int, int, int], tuple] = {}
        self._entry: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._inject: dict[tuple[int, int, int], tuple] = {}
        self._init_rows()
        #: Initial state id of every fresh packet when the algorithm
        #: keeps the base (stateless) ``initial_state``; else ``None``
        #: and :meth:`initial_sids` interns per ``(src, dst)`` pair.
        self._const_init_sid: int | None = (
            self.state_id(None)
            if type(algorithm).initial_state is RoutingAlgorithm.initial_state
            else None
        )
        self._init_sids: dict[tuple[int, int], int] = {}

        # ---- compiled hop kernel (optional fast path) ------------------
        #: The algorithm's integer hop kernel, or ``None`` (plan-cache
        #: translation only).  See :mod:`repro.core.hops`.
        self.kernel = None
        if use_kernel:
            hook = getattr(algorithm, "compile_hops", None)
            if hook is not None:
                self.kernel = hook(self)
        #: Wall-clock seconds to build the structure + compile the
        #: kernel (telemetry gauge ``repro_tables_compile_seconds``).
        self.compile_seconds = time.perf_counter() - t_start

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def state_id(self, state: Any) -> int:
        """Small-int id of a routing state (interned on first use)."""
        try:
            sid = self._state_ids.get(state)
        except TypeError as exc:
            raise EngineCapabilityError(
                f"the vector engine requires hashable routing states; "
                f"{self.algorithm.name} produced {state!r} — use "
                "engine='reference' or engine='compiled' "
                "(see docs/ARCHITECTURE.md)"
            ) from exc
        if sid is None:
            sid = self._state_ids[state] = len(self.states)
            self.states.append(state)
        return sid

    def initial_sids(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """State ids of fresh packets ``srcs[i] -> dsts[i]`` (node
        indices): ``initial_state`` interned once per distinct pair."""
        if self._const_init_sid is not None:
            return np.full(len(srcs), self._const_init_sid, dtype=np.int64)
        memo = self._init_sids
        nodes = self.nodes
        init = self.algorithm.initial_state
        out = []
        for key in zip(srcs.tolist(), dsts.tolist()):
            sid = memo.get(key)
            if sid is None:
                sid = memo[key] = self.state_id(
                    init(nodes[key[0]], nodes[key[1]])
                )
            out.append(sid)
        return np.asarray(out, dtype=np.int64)

    @property
    def size(self) -> int:
        """Rows built so far: memoized rows of all three tables plus
        central rows the kernel built in batches (which have no memo
        entry; their entry fold lives in ``row_entq``/``row_entst``)."""
        return self._memo_entries() + self._batch_rows

    def _memo_entries(self) -> int:
        return len(self._central) + len(self._entry) + len(self._inject)

    # ------------------------------------------------------------------
    # Packed row ids (the batched engine's central-row representation)
    # ------------------------------------------------------------------
    def _init_rows(self) -> None:
        """(Re)initialize the packed central-row arrays + row-id index.

        A *row id* (rid) names one built central row; the candidate
        data lives in parallel ``(rid, candidate)`` numpy arrays so the
        batched fill phase gathers whole batches of rows without
        touching Python objects.  ``row_entq``/``row_entst`` hold the
        *entry-resolved* landing queue/state per candidate, so the read
        phase needs no further lookups.
        """
        cap = 256
        width = 4
        self._row_n = 0
        #: Central rows packed by the kernel's batched ``central_rows``.
        self._batch_rows = 0
        self.row_slots = np.full((cap, width), self.n_slots, dtype=np.int64)
        self.row_queues = np.full((cap, width), -1, dtype=np.int64)
        self.row_states = np.zeros((cap, width), dtype=np.int64)
        self.row_dyn = np.zeros((cap, width), dtype=np.int64)
        self.row_entq = np.full((cap, width), -1, dtype=np.int64)
        self.row_entst = np.zeros((cap, width), dtype=np.int64)
        self.row_hasint = np.zeros(cap, dtype=np.int64)
        #: Internal steps per rid (python tuples; only walked on stalls).
        self.row_internal: list[tuple] = []
        cells = self.n_queues * len(self.nodes)
        if 0 < cells <= _DENSE_ROWID_CELLS:
            self._rowid_dense: np.ndarray | None = np.full(
                (self.n_queues, len(self.nodes), 1), -1, dtype=np.int64
            )
            self._rowid_map: dict[tuple[int, int, int], int] | None = None
        else:
            self._rowid_dense = None
            self._rowid_map = {}

    @property
    def has_dense_rowids(self) -> bool:
        """Whether row ids are indexed by a dense numpy gather table."""
        return self._rowid_dense is not None

    @property
    def rows_packed(self) -> int:
        """Number of central rows packed into the rid arrays."""
        return self._row_n

    def _grow_rows(self, width: int, rows: int = 1) -> None:
        """Make room for ``rows`` more rows of up to ``width`` candidates."""
        cap, w = self.row_slots.shape
        new_cap = cap
        while new_cap < self._row_n + rows:
            new_cap *= 2
        new_w = w
        while new_w < width:
            new_w *= 2
        pads = {
            "row_slots": self.n_slots,
            "row_queues": -1,
            "row_states": 0,
            "row_dyn": 0,
            "row_entq": -1,
            "row_entst": 0,
        }
        for name, pad in pads.items():
            old = getattr(self, name)
            arr = np.full((new_cap, new_w), pad, dtype=np.int64)
            arr[:cap, :w] = old
            setattr(self, name, arr)
        if new_cap != cap:
            hasint = np.zeros(new_cap, dtype=np.int64)
            hasint[:cap] = self.row_hasint
            self.row_hasint = hasint

    def _grow_rowid_states(self, sid: int) -> None:
        tab = self._rowid_dense
        depth = max(sid + 1, len(self.states), tab.shape[2] * 2)
        new = np.full((tab.shape[0], tab.shape[1], depth), -1, dtype=np.int64)
        new[:, :, : tab.shape[2]] = tab
        self._rowid_dense = new

    def _pack_row(self, dst_i: int, row: tuple) -> int:
        slots, queues, states, dyn, internal = row
        nc = len(slots)
        if self._row_n >= self.row_slots.shape[0] or nc > self.row_slots.shape[1]:
            self._grow_rows(nc)
        rid = self._row_n
        self._row_n = rid + 1
        if nc:
            self.row_slots[rid, :nc] = slots
            self.row_queues[rid, :nc] = queues
            self.row_states[rid, :nc] = states
            self.row_dyn[rid, :nc] = dyn
            for j in range(nc):
                eq, est = self.entry_row(queues[j], dst_i, states[j])
                self.row_entq[rid, j] = eq
                self.row_entst[rid, j] = est
        self.row_hasint[rid] = 1 if internal else 0
        self.row_internal.append(internal)
        return rid

    def central_rid(self, qid: int, dst_i: int, sid: int) -> int:
        """Packed row id for ``(qid, dst_i, sid)`` (built on first use)."""
        tab = self._rowid_dense
        if tab is not None:
            if sid >= tab.shape[2]:
                self._grow_rowid_states(sid)
                tab = self._rowid_dense
            rid = int(tab[qid, dst_i, sid])
            if rid >= 0:
                return rid
        else:
            rid = self._rowid_map.get((qid, dst_i, sid), -1)
            if rid >= 0:
                return rid
        rid = self._pack_row(dst_i, self.central_row(qid, dst_i, sid))
        if self._rowid_dense is not None:
            self._rowid_dense[qid, dst_i, sid] = rid
        else:
            self._rowid_map[(qid, dst_i, sid)] = rid
        return rid

    def central_rids(
        self, qids: np.ndarray, dsts: np.ndarray, sids: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`central_rid`.

        One numpy gather (dense row-id mode) or one dict probe per key
        (dict mode, networks past the dense ceiling).  All misses of
        the call go to the kernel's batched ``central_rows`` at once;
        if it declines, they are built one at a time by
        :meth:`central_rid`.
        """
        tab = self._rowid_dense
        if tab is None:
            get = self._rowid_map.get
            keys = list(zip(qids.tolist(), dsts.tolist(), sids.tolist()))
            rids = np.fromiter(
                (get(k, -1) for k in keys), dtype=np.int64, count=len(keys)
            )
        else:
            if len(self.states) > tab.shape[2]:
                self._grow_rowid_states(len(self.states) - 1)
                tab = self._rowid_dense
            rids = tab[qids, dsts, sids]
        misses = np.flatnonzero(rids < 0)
        if misses.size:
            if not self._pack_batch(qids, dsts, sids, rids, misses):
                for i in misses.tolist():
                    rids[i] = self.central_rid(
                        int(qids[i]), int(dsts[i]), int(sids[i])
                    )
        return rids

    def _pack_batch(self, qids, dsts, sids, rids, misses) -> bool:
        """Build and pack the rows of ``misses`` with the kernel's
        batched ``central_rows``; fill their ``rids``.  False if there
        is no batched kernel or it declines."""
        if self.kernel is None:
            return False
        mq = qids[misses]
        md = dsts[misses]
        ms = sids[misses]
        key = (mq * len(self.nodes) + md) * (int(ms.max()) + 1) + ms
        _, first, inverse = np.unique(
            key, return_index=True, return_inverse=True
        )
        uq = mq[first]
        ud = md[first]
        us = ms[first]
        built = self.kernel.central_rows(uq, ud, us)
        if built is None:
            return False
        slots, queues, states, dyn, entq, entst, internal = built
        m, width = slots.shape
        if self._row_n + m > self.row_slots.shape[0] or (
            width > self.row_slots.shape[1]
        ):
            self._grow_rows(width, m)
        r0 = self._row_n
        new = slice(r0, r0 + m)
        self.row_slots[new, :width] = slots
        self.row_queues[new, :width] = queues
        self.row_states[new, :width] = states
        self.row_dyn[new, :width] = dyn
        self.row_entq[new, :width] = entq
        self.row_entst[new, :width] = entst
        self.row_hasint[new] = [1 if steps else 0 for steps in internal]
        self.row_internal.extend(internal)
        self._row_n = r0 + m
        self._batch_rows += m
        new_rids = np.arange(r0, r0 + m, dtype=np.int64)
        if self._rowid_dense is not None:
            self._rowid_dense[uq, ud, us] = new_rids
        else:
            keys = zip(uq.tolist(), ud.tolist(), us.tolist())
            self._rowid_map.update(zip(keys, range(r0, r0 + m)))
        rids[misses] = new_rids[inverse]
        return True

    def clear_rows(self) -> None:
        """Drop every memoized/packed row (structure + kernel stay).

        Used by the fault adapter's epoch-gated kernel: rows depend on
        the live fault set, so an epoch flip invalidates them all.
        Engines must not hold row references across a call (the vector
        engine never runs fault epochs; the analyzer rebuilds per
        epoch).
        """
        self._central.clear()
        self._entry.clear()
        self._inject.clear()
        self.plans.central_memo.clear()
        self.plans.entry_memo.clear()
        self.plans.inject_memo.clear()
        self._init_rows()

    def memory_bytes(self) -> int:
        """Approximate resident bytes of rows + row index (telemetry).

        Numpy arrays are counted exactly; the per-entry cost of the
        three memo dicts (key tuple + value tuples) is estimated at a
        flat 200 bytes, for the entries that exist (batched rows have
        none).
        """
        total = (
            self.row_slots.nbytes
            + self.row_queues.nbytes
            + self.row_states.nbytes
            + self.row_dyn.nbytes
            + self.row_entq.nbytes
            + self.row_entst.nbytes
            + self.row_hasint.nbytes
        )
        if self._rowid_dense is not None:
            total += self._rowid_dense.nbytes
        else:
            total += 100 * len(self._rowid_map)
        total += 200 * self._memo_entries()
        return total

    # ------------------------------------------------------------------
    # Row tables
    # ------------------------------------------------------------------
    def central_row(self, qid: int, dst_i: int, sid: int) -> tuple:
        """Fill-phase row for a message in central queue ``qid``.

        Returns ``(ext_slots, ext_queues, ext_states, ext_dyn,
        internal)`` — four parallel tuples of external candidates
        sorted slot-ascending (first-wins per physical buffer, statics
        before dynamics, exactly :class:`RoutingPlanCache`), plus the
        internal ``(action, queue_id, state_id)`` steps in reference
        order (``queue_id`` is -1 for delivery).
        """
        key = (qid, dst_i, sid)
        row = self._central.get(key)
        if row is None:
            row = self._central[key] = self._build_central(qid, dst_i, sid)
        return row

    def _build_central(self, qid: int, dst_i: int, sid: int) -> tuple:
        if self.kernel is not None:
            row = self.kernel.central_row(qid, dst_i, sid)
            if row is not None:
                return row
        plan = self.plans.central_plan(
            self.queue_objs[qid], self.nodes[dst_i], self.states[sid]
        )
        ui = self.queue_node[qid]
        ext = []
        for (v, cls), (q2, new_state, dyn) in plan.external.items():
            # Candidates without a physical buffer are unreachable in
            # the reference engine too; drop them (after first-wins).
            s = self.slot_of.get((ui, self.nid[v], cls))
            if s is not None:
                ext.append(
                    (
                        s,
                        self.qid_of[(self.nid[q2.node], q2.kind)],
                        self.state_id(new_state),
                        1 if dyn else 0,
                    )
                )
        ext.sort()
        internal = tuple(
            (
                action,
                -1
                if action == DELIVER_STEP
                else self.qid_of[(ui, q2.kind)],
                sid if action == DELIVER_STEP else self.state_id(st),
            )
            for action, q2, st in plan.internal
        )
        return (
            tuple(c[0] for c in ext),
            tuple(c[1] for c in ext),
            tuple(c[2] for c in ext),
            tuple(c[3] for c in ext),
            internal,
        )

    def entry_row(self, qid: int, dst_i: int, sid: int) -> tuple[int, int]:
        """Where a packet nominally targeting ``qid`` actually lands.

        The forced-phase-switch fold of
        ``PacketSimulator._resolve_entry_queue``, on ints.
        """
        key = (qid, dst_i, sid)
        row = self._entry.get(key)
        if row is None:
            if self.kernel is not None:
                row = self.kernel.entry_row(qid, dst_i, sid)
            if row is None:
                q2, st = self.plans.entry(
                    self.queue_objs[qid], self.nodes[dst_i], self.states[sid]
                )
                row = (
                    self.qid_of[(self.nid[q2.node], q2.kind)],
                    self.state_id(st),
                )
            self._entry[key] = row
        return row

    def injection_rows(
        self, uis: np.ndarray, dsts: np.ndarray, sids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Landing ``(queues, states)`` of a batch of fresh packets.

        Where a key's :meth:`injection_row` has exactly one target,
        that target; ``-1`` / ``0`` where it has none or several (the
        vector engine's read pass then walks the row in order and
        picks the first queue that still has room, or leaves the
        packet in its injection buffer).  The kernel's batched
        ``injection_rows`` answers in closed form and leaves no memo
        entries; otherwise every key goes through the memoized
        :meth:`injection_row`, so each distinct key is built once.
        """
        if self.kernel is not None:
            built = self.kernel.injection_rows(uis, dsts, sids)
            if built is not None:
                return built
        queues = np.full(len(uis), -1, dtype=np.int64)
        states = np.zeros(len(uis), dtype=np.int64)
        keys = zip(uis.tolist(), dsts.tolist(), sids.tolist())
        for i, key in enumerate(keys):
            row = self.injection_row(*key)
            if len(row) == 1:
                queues[i], states[i] = row[0]
        return queues, states

    def injection_row(self, ui: int, dst_i: int, sid: int) -> tuple:
        """Resolved injection targets: ``((queue_id, state_id), ...)``
        in the reference engine's ``sorted(targets)`` order."""
        key = (ui, dst_i, sid)
        row = self._inject.get(key)
        if row is None:
            if self.kernel is not None:
                row = self.kernel.injection_row(ui, dst_i, sid)
            if row is None:
                plan = self.plans.injection_plan(
                    self.nodes[ui], self.nodes[dst_i], self.states[sid]
                )
                row = tuple(
                    (
                        self.qid_of[(self.nid[q2.node], q2.kind)],
                        self.state_id(st),
                    )
                    for _kind, q2, st in plan
                )
            self._inject[key] = row
        return row
