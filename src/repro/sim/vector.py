"""Vectorized table-driven engine (any algorithm, any topology).

:class:`VectorSimulator` executes the paper's Section-7.1 routing cycle
over the integer tables of :class:`~repro.sim.tables.RoutingTables`:
messages live in parallel int arrays (destination, state id, uid,
resolved entry queue, injection cycle; no ``Message`` objects, and
each cycle's injections arrive as one columnar batch), central queues
are rows of one int matrix, link buffers are numpy int arrays holding
message indices, and each of the three phases of the cycle has one
batched numpy form, used at every load and on every layout:

* the **fill phase** sweeps all busy nodes at once, one
  ``(position, kind rank)`` step at a time over a padded
  ``(node, kind rank)`` queue grid (nodes with fewer queue kinds are
  padded with an always-empty sentinel queue): a single
  :meth:`~repro.sim.tables.RoutingTables.central_rids` call per cycle
  maps every waiting message to its packed hop row (building the
  missing rows in one batch), and per step a per-row argmax over
  output-buffer freeness performs the greedy matching for the whole
  network in a handful of array ops;
* the **read phase** ranks every occupied input/injection buffer with
  one ``lexsort`` and admits per-queue prefixes against capacity;
  injection packets whose row is empty or has several targets are
  resolved to their landing queue in the same pass;
* the **link cycle** moves whole class-groups of links per operation.

**Identity guarantees.**  Packet-for-packet identical to
:class:`~repro.sim.engine.PacketSimulator` at equal seeds on every
topology: same latencies, cycle counts, injection statistics, and a
byte-identical canonical telemetry event log
(``tests/test_sim_vector.py``, ``tests/test_sim_kernels.py``).  The
fill phase replays the compiled engine's message-major greedy matching
(provably equal to the reference engine's buffer-major loop under
aligned preference orders) — the batch form runs the same
(position, kind) steps across nodes, which commute because queues,
output buffers, and internal moves never cross nodes.  The read phase
replays the rotating input fairness: the batched rank
``(source position - cycle) mod (inputs + 1)`` equals the reference
rotation, and per-queue prefix admission equals the sequential loop
because rejected reads have no side effects; a multi-target injection
row resolves to the first queue whose free capacity exceeds the
node's arrivals ranked ahead of the buffer and bound for that queue,
since an earlier arrival only consumes capacity in its own queue.
The link cycle's class rotation is ``cycle % k`` per ``k``-class
link — the same ``rotated`` the reference engine uses.

**Limitations** (each raises a descriptive
:class:`~repro.sim.tables.EngineCapabilityError` — the engine never
silently degrades; see the engine matrix in ``docs/ARCHITECTURE.md``):

* routing states must be hashable (interned to table ids);
* no generic observer loop: the only observer accepted is a
  :class:`~repro.telemetry.TelemetryProbe`, which this engine drives
  itself (below).  Fault injectors and watchdogs need the reference or
  compiled engine — ``repro.faults.experiments.make_fault_simulator``
  therefore maps ``engine="vector"`` to ``"auto"``;
* no per-hop tracing (``trace=True``) and no ``delivered_messages``
  capture.

**Telemetry.**  Events are buffered *columnar* during the run — flat
int lists per event kind, no tuple or label allocation on the hot
path — and materialized once at run end (also when the run stalls
out and raises), stable-sorted by ``(cycle, uid)``: exactly the
canonical order of
:meth:`~repro.telemetry.events.EventLog.canonical`, so JSONL output is
byte-identical with the generic engines.  Metrics-only probes receive
the same canonical stream through their sink; occupancy histograms are
fed via bucketed bulk counts (``Histogram.observe_many``) at the same
sampling points the probe's own ``on_cycle`` would use.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from ..core.message import take_uids
from ..core.routing_function import RoutingAlgorithm
from .engine import CycleLimitExceeded, DeadlockError
from .injection import InjectionModel
from .metrics import LatencyStats, SimulationResult
from .plans import DELIVER_STEP, SELF_STEP
from .tables import EngineCapabilityError, RoutingTables

__all__ = ["VectorSimulator"]

#: Rank larger than any rotating-policy slot rank (masks occupied slots).
_NO_RANK = 1 << 40


class VectorSimulator:
    """Table-driven engine; drop-in for :class:`PacketSimulator` runs."""

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        injection: InjectionModel,
        central_capacity: int = 5,
        stall_limit: int = 1000,
        trace: bool = False,
        collect_occupancy: bool = False,
        occupancy_sample_every: int = 1,
        policy: str = "paper",
        service: str = "fifo",
        tables: RoutingTables | None = None,
    ):
        if policy not in ("paper", "rotating"):
            raise ValueError("policy must be 'paper' or 'rotating'")
        if service not in ("fifo", "lifo"):
            raise ValueError("service must be 'fifo' or 'lifo'")
        if trace:
            raise EngineCapabilityError(
                "the vector engine does not record per-hop traces; use "
                "engine='reference' or engine='compiled' "
                "(see docs/ARCHITECTURE.md)"
            )
        self.algorithm = algorithm
        self.topology = algorithm.topology
        self.injection = injection
        self.central_capacity = central_capacity
        self.stall_limit = stall_limit
        self.trace = False
        self.collect_occupancy = collect_occupancy
        self.occupancy_sample_every = occupancy_sample_every
        self.policy = policy
        self.service = service

        self.tables = (
            tables if tables is not None else RoutingTables(algorithm)
        )
        if self.tables.algorithm is not algorithm:
            raise ValueError("tables were built for a different algorithm")
        t = self.tables

        #: Node labels in reference order (injection models iterate this).
        self.nodes: list[Hashable] = t.nodes
        self._nid = t.nid
        self.link_classes = t.link_classes
        # Numpy forms of the per-node/per-slot tables.
        self._n_in = np.array(
            [len(s) for s in t.node_in_slots], dtype=np.int64
        )
        self._slot_pos = np.asarray(t.slot_in_pos, dtype=np.int64)
        self._slot_dst = np.asarray(t.slot_dst, dtype=np.int64)
        self._out_start = np.asarray(t.node_out_start, dtype=np.int64)
        self._out_count = np.asarray(t.node_out_count, dtype=np.int64)
        # Per class-count k: contiguous per-class slot columns, so the
        # link cycle gathers without re-slicing each cycle.
        self._link_cols: dict[int, list[np.ndarray]] = {
            k: [np.ascontiguousarray(mat[:, j]) for j in range(k)]
            for k, mat in t.link_groups.items()
        }
        # Central queue ids per (node, kind rank), in node_qids order.
        # Nodes with fewer kinds are padded with the sentinel queue
        # n_queues, which stays empty, so the fill never selects it.
        n_nodes = len(self.nodes)
        self._qgrid = np.full(
            (n_nodes, max(map(len, t.node_qids), default=0)),
            t.n_queues,
            dtype=np.int64,
        )
        for ui, qids in enumerate(t.node_qids):
            self._qgrid[ui, : len(qids)] = qids

        # ---- dynamic state ---------------------------------------------
        # Central queues as one int matrix: row qid holds message
        # indices, -1-padded, plus the empty sentinel row.  `_qlen` is
        # the physical row length (including in-fill tombstones),
        # `_qcount` the live count; rows are compacted (qlen == qcount,
        # entries contiguous from column 0) between phases.  Width
        # 2*cap+2 covers the worst mid-fill case (cap live + cap
        # same-cycle MOVE appends).
        width = 2 * central_capacity + 2
        self._qbuf = np.full((t.n_queues + 1, width), -1, dtype=np.int64)
        self._qlen = np.zeros(t.n_queues + 1, dtype=np.int64)
        self._qcount = np.zeros(t.n_queues + 1, dtype=np.int64)
        #: Queued messages per node (busy = nonzero entries).
        self._load = np.zeros(n_nodes, dtype=np.int64)
        #: Injection buffers (message index or -1).
        self._inj = np.full(n_nodes, -1, dtype=np.int64)
        #: Link buffers as message-index arrays (-1 = empty).  The out
        #: array carries one extra occupied sentinel slot that packed
        #: hop rows use as padding, so padded candidates never match.
        self._out = np.full(t.n_slots + 1, -1, dtype=np.int64)
        self._out[t.n_slots] = -2
        self._in = np.full(t.n_slots, -1, dtype=np.int64)

        # Parallel per-message numpy columns (index = registration
        # order).  No Message objects: a packet is its index into these
        # columns.
        self._mn = 0
        cap0 = 1024
        self._mdst = np.empty(cap0, dtype=np.int64)
        self._mstate = np.empty(cap0, dtype=np.int64)
        self._minj = np.empty(cap0, dtype=np.int64)
        self._muid = np.empty(cap0, dtype=np.int64)
        # Entry queue/state the message will request on arrival —
        # resolved at hop time (external moves) or injection time; -1
        # for an injection row that is empty or has several targets
        # (walked at read time, _resolve_injections).
        self._ment_q = np.empty(cap0, dtype=np.int64)
        self._ment_st = np.empty(cap0, dtype=np.int64)
        # Packets delivered in this cycle's fill phase, in sweep order;
        # their statistics are booked once per cycle (_deliver).
        self._delivered: list[int] = []

        # Bookkeeping (same contract as the reference engine).
        self.cycle = 0
        self.injected_count = 0
        self.delivered_count = 0
        self.active = 0
        self.latency = LatencyStats()
        self.measure_from = getattr(injection, "warmup", 0)
        self._last_progress = 0
        self.dead_nodes: frozenset = frozenset()
        self.blocked_links: frozenset = frozenset()
        self._events = None  # sink installed by TelemetryProbe.attach
        self._probe = None
        self._recording = False

        # Columnar event buffers (flat int lists; flushed at run end).
        self._ev_inject: list[int] = []  # (cycle, mi, node) triples
        self._ev_enqueue: list[int] = []  # (cycle, mi, qid) triples
        self._ev_hop: list[int] = []  # (cycle, mi, slot, dyn, qid) 5-tuples
        self._ev_deliver: list[int] = []  # (cycle, mi) pairs

        # Occupancy accounting (engine-level collect_occupancy).
        self._occ_sum = None
        self._occ_peak = None
        self.occupancy_samples = 0
        # Buffered probe occupancy series: (cycle, per-queue lengths).
        self._series_buf: list[tuple[int, np.ndarray]] = []

    # ------------------------------------------------------------------
    # Observer interface (telemetry probes only)
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Accept a telemetry probe; reject everything else loudly."""
        from ..telemetry.probe import TelemetryProbe

        if isinstance(observer, TelemetryProbe):
            self._probe = observer
            return
        raise EngineCapabilityError(
            f"the vector engine has no generic observer loop and cannot "
            f"attach {type(observer).__name__}; fault injectors and "
            "watchdogs need engine='reference' or engine='compiled' "
            "(see docs/ARCHITECTURE.md)"
        )

    # ------------------------------------------------------------------
    # Growable storage
    # ------------------------------------------------------------------
    def _grow_qbuf(self, need: int) -> None:
        old = self._qbuf
        width = max(old.shape[1] * 2, need + 1)
        buf = np.full((old.shape[0], width), -1, dtype=np.int64)
        buf[:, : old.shape[1]] = old
        self._qbuf = buf

    def _grow_msgs(self, need: int) -> None:
        cap = self._mdst.size
        while cap < need:
            cap *= 2
        for name in (
            "_mdst", "_mstate", "_minj", "_muid", "_ment_q", "_ment_st"
        ):
            col = getattr(self, name)
            grown = np.empty(cap, dtype=np.int64)
            grown[: col.size] = col
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # Injection-model interface (docs/ARCHITECTURE.md, "Injection
    # contract")
    # ------------------------------------------------------------------
    def injection_free_mask(self) -> np.ndarray:
        """Per node index: is its injection queue free (and the node up)?"""
        free = self._inj == -1
        if self.dead_nodes:
            free[[self._nid[u] for u in self.dead_nodes]] = False
        return free

    def place_in_injection_queue(self, srcs, dsts, cycle: int, uids=None):
        """Place one packet per ``(srcs[i], dsts[i])`` node-index pair.

        Same contract as :meth:`PacketSimulator.place_in_injection_queue`,
        but no :class:`~repro.core.message.Message` is built: the
        packets go straight into the message columns, with their
        initial states and injection rows resolved for the whole batch.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        m = srcs.size
        if uids is None:
            uids = take_uids(m)
        if not m:
            return uids
        mi0 = self._mn
        mis = np.arange(mi0, mi0 + m)
        inj = self._inj
        busy = inj[srcs] != -1
        if busy.any():
            u = self.nodes[int(srcs[np.argmax(busy)])]
            raise RuntimeError(f"injection queue at {u} occupied")
        inj[srcs] = mis
        if (inj[srcs] != mis).any():
            inj[srcs] = -1
            raise RuntimeError("two packets placed at one node in one call")
        if mi0 + m > self._mdst.size:
            self._grow_msgs(mi0 + m)
        t = self.tables
        sids = t.initial_sids(srcs, dsts)
        entq, entst = t.injection_rows(srcs, dsts, sids)
        new = slice(mi0, mi0 + m)
        self._mdst[new] = dsts
        self._mstate[new] = sids
        self._minj[new] = cycle
        self._muid[new] = uids
        self._ment_q[new] = entq
        self._ment_st[new] = entst
        self._mn = mi0 + m
        self.injected_count += m
        self.active += m
        self._last_progress = cycle
        if self._recording:
            ev = np.empty((m, 3), dtype=np.int64)
            ev[:, 0] = cycle
            ev[:, 1] = mis
            ev[:, 2] = srcs
            self._ev_inject.extend(ev.ravel().tolist())
        return uids

    # ------------------------------------------------------------------
    # One routing cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        cycle = self.cycle
        # The sink is installed by attach() after construction.
        self._recording = self._events is not None
        probe = self._probe
        if probe is not None and probe.enabled:
            if cycle % probe.occupancy_every == 0:
                self._probe_sample(probe)
        self.injection.attempt(self, cycle)
        busy = np.flatnonzero(self._load)
        if busy.size:
            self._fill(busy, cycle)
            if self._delivered:
                self._deliver(self._delivered, cycle)
                self._delivered = []
        self._read_inputs(cycle)
        self._link_cycle(cycle)
        if self.collect_occupancy and cycle % self.occupancy_sample_every == 0:
            self._sample_occupancy()
        self.cycle += 1
        if (
            self.active > 0
            and self.cycle - self._last_progress > self.stall_limit
        ):
            raise DeadlockError(
                f"no progress for {self.stall_limit} cycles at cycle "
                f"{self.cycle} with {self.active} active packets "
                f"({self.algorithm.name})"
            )

    # -- node cycle, part 1: queues -> output buffers + internal moves ----
    def _fill(self, busy: np.ndarray, cycle: int) -> None:
        """All busy nodes at once, one (position, kind rank) step at a
        time.

        Each step touches at most one message per node, and nodes are
        independent in the fill phase (queues, output buffers, and
        internal moves never cross nodes), so running the per-node
        steps in lockstep across the network reproduces each node's
        sequential message-major sweep exactly.  A node's queues come
        from its row of the padded ``(node, kind rank)`` grid, so nodes
        with different numbers of queue kinds share the sweep.
        """
        t = self.tables
        qbuf = self._qbuf
        qlen = self._qlen
        qcount = self._qcount
        out = self._out
        load = self._load
        mstate = self._mstate
        mdst = self._mdst
        ment_q = self._ment_q
        ment_st = self._ment_st
        central_rids = t.central_rids
        recording = self._recording
        rotating = self.policy == "rotating"

        qgrid = self._qgrid[busy]
        lens = qlen[qgrid]
        maxlen = int(lens.max())
        # Every waiting message is visited once by the sweep below and
        # nothing in the sweep changes the key of a message still
        # waiting, so all rows are looked up (and missing ones built)
        # in one call up front.
        msgs = qbuf[qgrid, :maxlen]
        present = np.arange(maxlen) < lens[:, :, None]
        held = msgs[present]
        rid_grid = np.empty(msgs.shape, dtype=np.int64)
        rid_grid[present] = central_rids(
            np.repeat(qgrid.ravel(), lens.ravel()), mdst[held], mstate[held]
        )
        # Fetch the packed arrays after the lookup: building rows can
        # grow (reallocate) them.
        row_slots = t.row_slots
        row_queues = t.row_queues
        row_states = t.row_states
        row_dyn = t.row_dyn
        row_entq = t.row_entq
        row_entst = t.row_entst
        row_hasint = t.row_hasint
        positions = (
            range(maxlen)
            if self.service == "fifo"
            else range(maxlen - 1, -1, -1)
        )
        pending: list[tuple[int, int, int, int]] = []
        progressed = False
        for pos in positions:
            for r in range(qgrid.shape[1]):
                sel = np.flatnonzero(lens[:, r] > pos)
                if not sel.size:
                    continue
                q_sel = qgrid[sel, r]
                mis = msgs[sel, r, pos]
                rids = rid_grid[sel, r, pos]
                cand = row_slots[rids]
                free = out[cand] == -1
                got = free.any(axis=1)
                if rotating:
                    nodes_sel = busy[sel]
                    n_keys = np.maximum(self._out_count[nodes_sel], 1)
                    rank = (
                        cand - self._out_start[nodes_sel][:, None] - cycle
                    ) % n_keys[:, None]
                    rank[~free] = _NO_RANK
                    pick = np.argmin(rank, axis=1)
                else:
                    # "paper": slot-ascending, first free wins (rows
                    # are slot-sorted, padding sorts last).
                    pick = np.argmax(free, axis=1)
                gi = np.flatnonzero(got)
                if gi.size:
                    jg = pick[gi]
                    rg = rids[gi]
                    mg = mis[gi]
                    sg = cand[gi, jg]
                    out[sg] = mg
                    qg = q_sel[gi]
                    qbuf[qg, pos] = -1  # tombstone; compacted below
                    qcount[qg] -= 1
                    load[busy[sel[gi]]] -= 1
                    mstate[mg] = row_states[rg, jg]
                    ment_q[mg] = row_entq[rg, jg]
                    ment_st[mg] = row_entst[rg, jg]
                    progressed = True
                    if recording:
                        ev = np.empty((gi.size, 5), dtype=np.int64)
                        ev[:, 0] = cycle
                        ev[:, 1] = mg
                        ev[:, 2] = sg
                        ev[:, 3] = row_dyn[rg, jg]
                        ev[:, 4] = row_queues[rg, jg]
                        self._ev_hop.extend(ev.ravel().tolist())
                blocked = np.flatnonzero(~got & (row_hasint[rids] != 0))
                if blocked.size:
                    qp = q_sel[blocked]
                    mp = mis[blocked]
                    rp = rids[blocked]
                    for i in range(blocked.size):
                        pending.append(
                            (int(qp[i]), pos, int(mp[i]), int(rp[i]))
                        )
        if progressed:
            self._last_progress = cycle
        if pending:
            self._run_internal(pending, cycle)
        self._compact()

    def _run_internal(
        self, pending: list[tuple[int, int, int, int]], cycle: int
    ) -> None:
        """Internal moves of the fill, in sweep order.

        Per node this is the reference engine's (position, kind)-ordered
        internal pass, and internal moves never cross nodes, so the
        global order is immaterial.
        """
        t = self.tables
        cap = self.central_capacity
        qlen = self._qlen
        qcount = self._qcount
        mstate = self._mstate
        queue_node = t.queue_node
        row_internal = t.row_internal
        recording = self._recording
        delivered = self._delivered
        for qid, pos, mi, rid in pending:
            for action, tq, tst in row_internal[rid]:
                if action == DELIVER_STEP:
                    self._qbuf[qid, pos] = -1
                    qcount[qid] -= 1
                    self._load[queue_node[qid]] -= 1
                    delivered.append(mi)
                    break
                if action == SELF_STEP:
                    mstate[mi] = tst
                    self._last_progress = cycle
                    if recording:
                        self._ev_enqueue.extend((cycle, mi, tq))
                    break
                # MOVE_STEP: sibling central queue, capacity permitting.
                if qcount[tq] < cap:
                    self._qbuf[qid, pos] = -1
                    qcount[qid] -= 1
                    end = int(qlen[tq])
                    if end >= self._qbuf.shape[1]:
                        self._grow_qbuf(end)
                    self._qbuf[tq, end] = mi
                    qlen[tq] = end + 1
                    qcount[tq] += 1
                    mstate[mi] = tst
                    self._last_progress = cycle
                    if recording:
                        self._ev_enqueue.extend((cycle, mi, tq))
                    break

    def _compact(self) -> None:
        """Squeeze in-fill tombstones out of dirty queue rows.

        Stable partition: survivors keep their order, same-cycle MOVE
        appends stay behind them — the reference engine's remove/append
        order.
        """
        qlen = self._qlen
        qcount = self._qcount
        dirty = np.flatnonzero(qlen != qcount)
        if dirty.size:
            rows = self._qbuf[dirty]
            order = np.argsort(rows == -1, axis=1, kind="stable")
            self._qbuf[dirty] = np.take_along_axis(rows, order, axis=1)
            qlen[dirty] = qcount[dirty]

    # -- node cycle, part 2: input + injection buffers -> queues ----------
    def _read_inputs(self, cycle: int) -> None:
        """All occupied input/injection buffers in one admission pass.

        Rank ``(source position - cycle) mod (inputs + 1)`` is the
        reference engine's rotated read order (the injection buffer
        sits at position ``inputs``).  Sorting by (node, rank) and
        admitting per-target-queue prefixes against free capacity
        equals the sequential loop: a rejected read has no side
        effects, and an admission only consumes capacity in its own
        queue.  Injection packets without a single target are resolved
        to one first (:meth:`_resolve_injections`), or sit out the pass.
        """
        arrivals = np.flatnonzero(self._in != -1)
        inj_nodes = np.flatnonzero(self._inj != -1)
        if not arrivals.size and not inj_nodes.size:
            return
        a_nodes = self._slot_dst[arrivals]
        i_total = self._n_in[inj_nodes] + 1
        nodes_all = np.concatenate((a_nodes, inj_nodes))
        rank_all = np.concatenate(
            (
                (self._slot_pos[arrivals] - cycle) % (self._n_in[a_nodes] + 1),
                (i_total - 1 - cycle) % i_total,
            )
        )
        mi_all = np.concatenate((self._in[arrivals], self._inj[inj_nodes]))
        src_all = np.concatenate(
            (arrivals, np.full(inj_nodes.size, -1, dtype=np.int64))
        )
        tq_all = self._ment_q[mi_all]
        st_all = self._ment_st[mi_all]
        order = np.lexsort((rank_all, nodes_all))
        if (tq_all < 0).any():
            self._resolve_injections(
                arrivals.size, nodes_all, rank_all, mi_all, tq_all, st_all
            )
            order = order[tq_all[order] >= 0]  # unresolved: stay put
        perm = order[np.argsort(tq_all[order], kind="stable")]
        tq_s = tq_all[perm]
        total = tq_s.size
        starts = np.flatnonzero(np.r_[True, tq_s[1:] != tq_s[:-1]])
        counts = np.diff(np.r_[starts, total])
        seq = np.arange(total) - np.repeat(starts, counts)
        admit = np.flatnonzero(
            seq < self.central_capacity - self._qcount[tq_s]
        )
        if not admit.size:
            return
        take = perm[admit]
        tq_a = tq_s[admit]
        mi_a = mi_all[take]
        src_a = src_all[take]
        node_a = nodes_all[take]
        pos = self._qlen[tq_a] + seq[admit]
        high = int(pos.max())
        if high >= self._qbuf.shape[1]:
            self._grow_qbuf(high)
        self._qbuf[tq_a, pos] = mi_a
        np.add.at(self._qlen, tq_a, 1)
        np.add.at(self._qcount, tq_a, 1)
        np.add.at(self._load, node_a, 1)
        self._mstate[mi_a] = st_all[take]
        from_link = src_a >= 0
        self._in[src_a[from_link]] = -1
        self._inj[node_a[~from_link]] = -1
        self._last_progress = cycle
        if self._recording:
            ev = np.empty((mi_a.size, 3), dtype=np.int64)
            ev[:, 0] = cycle
            ev[:, 1] = mi_a
            ev[:, 2] = tq_a
            self._ev_enqueue.extend(ev.ravel().tolist())

    def _resolve_injections(
        self,
        n_arrivals: int,
        nodes: np.ndarray,
        ranks: np.ndarray,
        mis: np.ndarray,
        tqs: np.ndarray,
        sts: np.ndarray,
    ) -> None:
        """Pick the landing queue of each injection packet with ``tqs <
        0`` (a row that is empty or has several targets), in place.

        The reference engine walks the node's injection row in order
        when the injection buffer's turn comes and takes the first
        queue with room.  By then only the node's link arrivals ranked
        ahead of the buffer have been read, and each consumed capacity
        in its own target queue only, and only while that queue had
        room.  So queue ``q`` still has room iff its free capacity
        exceeds the number of those arrivals that target ``q``.  With
        no such queue (an empty row included) ``tqs`` stays -1 and the
        packet stays in its buffer.  The first ``n_arrivals`` entries
        are the link arrivals.
        """
        multi = np.flatnonzero(tqs < 0)
        mi = mis[multi]
        rows = list(
            map(
                self.tables.injection_row,
                nodes[multi].tolist(),
                self._mdst[mi].tolist(),
                self._mstate[mi].tolist(),
            )
        )
        cand = np.array(
            [c for row in rows for c in row], dtype=np.int64
        ).reshape(-1, 2)
        item = np.repeat(multi, [len(row) for row in rows])
        # Arrivals keyed by (target queue, rank): a queue belongs to one
        # node, so a key range counts one node's arrivals into it.
        span = int(ranks.max()) + 1
        keys = np.sort(tqs[:n_arrivals] * span + ranks[:n_arrivals])
        low = cand[:, 0] * span
        ahead = np.searchsorted(keys, low + ranks[item]) - np.searchsorted(
            keys, low
        )
        fits = np.flatnonzero(
            self.central_capacity - self._qcount[cand[:, 0]] > ahead
        )
        if not fits.size:
            return
        # Candidates are item-major in row order: first fit per item.
        first = fits[np.r_[True, item[fits][1:] != item[fits][:-1]]]
        tqs[item[first]] = cand[first, 0]
        sts[item[first]] = cand[first, 1]

    # -- link cycle --------------------------------------------------------
    def _link_cycle(self, cycle: int) -> None:
        out = self._out
        inb = self._in
        progressed = False
        for k, cols in self._link_cols.items():
            if k == 1:
                col = cols[0]
                mv = (out[col] != -1) & (inb[col] == -1)
                if mv.any():
                    mc = col[mv]
                    inb[mc] = out[mc]
                    out[mc] = -1
                    progressed = True
            else:
                r = cycle % k
                done = np.zeros(len(cols[0]), dtype=bool)
                for p in range(k):
                    col = cols[(r + p) % k]
                    mv = (out[col] != -1) & (inb[col] == -1) & ~done
                    if mv.any():
                        mc = col[mv]
                        inb[mc] = out[mc]
                        out[mc] = -1
                        done |= mv
                        progressed = True
        if progressed:
            self._last_progress = cycle

    # -- delivery and stats -------------------------------------------------
    def _deliver(self, mis: list[int], cycle: int) -> None:
        """Book one cycle's deliveries (``mis`` in sweep order)."""
        k = len(mis)
        self.delivered_count += k
        self.active -= k
        self._last_progress = cycle
        if self._recording:
            ev = np.empty((k, 2), dtype=np.int64)
            ev[:, 0] = cycle
            ev[:, 1] = mis
            self._ev_deliver.extend(ev.ravel().tolist())
        injected = self._minj[mis]
        measured = injected[injected >= self.measure_from]
        self.latency.record_many((cycle - measured).tolist())

    def _queue_lengths(self) -> np.ndarray:
        return self._qcount[:-1].copy()  # without the sentinel queue

    def _sample_occupancy(self) -> None:
        lens = self._queue_lengths()
        if self._occ_sum is None:
            self._occ_sum = np.zeros(self.tables.n_queues, dtype=np.int64)
            self._occ_peak = np.zeros(self.tables.n_queues, dtype=np.int64)
        self._occ_sum += lens
        np.maximum(self._occ_peak, lens, out=self._occ_peak)
        self.occupancy_samples += 1

    def occupancy_mean(self) -> dict[tuple[Hashable, str], float]:
        if not self.occupancy_samples:
            return {}
        t = self.tables
        return {
            (t.nodes[t.queue_node[q]], t.queue_kind[q]): (
                int(self._occ_sum[q]) / self.occupancy_samples
            )
            for q in range(t.n_queues)
        }

    def _occupancy_peaks(self) -> dict[tuple[Hashable, str], int]:
        # The reference engine only records queues seen occupied.
        if self._occ_peak is None:
            return {}
        t = self.tables
        return {
            (t.nodes[t.queue_node[q]], t.queue_kind[q]): int(
                self._occ_peak[q]
            )
            for q in np.flatnonzero(self._occ_peak).tolist()
        }

    # -- telemetry ---------------------------------------------------------
    def _probe_sample(self, probe) -> None:
        lens = self._queue_lengths()
        hist = probe._occ_hist
        if hist is not None:
            for occ, count in enumerate(np.bincount(lens).tolist()):
                if count:
                    hist.observe_many(occ, count)
        if probe.series_enabled:
            self._series_buf.append((self.cycle, lens))
        if probe._inflight is not None:
            probe._inflight.set(self.active)

    def _materialize_events(self) -> list[tuple]:
        """Buffered columns -> canonical raw event tuples.

        Concatenation order (inject, enqueue, hop, deliver) plus a
        stable sort by ``(cycle, uid)`` reproduces
        :meth:`EventLog.canonical` exactly: the only same-``(cycle,
        uid)`` pair an engine can emit is inject-then-enqueue, and the
        concat order preserves it.
        """
        t = self.tables
        nodes = t.nodes
        muid = self._muid[: self._mn].tolist()
        mdst = self._mdst[: self._mn].tolist()
        minj = self._minj[: self._mn].tolist()
        qkind = t.queue_kind
        qnode = t.queue_node
        evs: list[tuple] = []
        buf = self._ev_inject
        for i in range(0, len(buf), 3):
            c, mi, ui = buf[i], buf[i + 1], buf[i + 2]
            evs.append(("inject", c, muid[mi], nodes[ui], nodes[mdst[mi]]))
        buf = self._ev_enqueue
        for i in range(0, len(buf), 3):
            c, mi, qid = buf[i], buf[i + 1], buf[i + 2]
            evs.append(("enqueue", c, muid[mi], nodes[qnode[qid]], qkind[qid]))
        buf = self._ev_hop
        for i in range(0, len(buf), 5):
            c, mi, s, dyn, tq = (
                buf[i],
                buf[i + 1],
                buf[i + 2],
                buf[i + 3],
                buf[i + 4],
            )
            evs.append(
                (
                    "hop",
                    c,
                    muid[mi],
                    nodes[t.slot_src[s]],
                    nodes[t.slot_dst[s]],
                    t.slot_cls[s],
                    bool(dyn),
                    qkind[tq],
                )
            )
        buf = self._ev_deliver
        for i in range(0, len(buf), 2):
            c, mi = buf[i], buf[i + 1]
            evs.append(
                ("deliver", c, muid[mi], nodes[mdst[mi]], c - minj[mi])
            )
        evs.sort(key=lambda ev: (ev[1], ev[2]))
        return evs

    def _flush_telemetry(self) -> None:
        """Hand the buffered events and occupancy samples to the probe."""
        sink = self._events
        if sink is not None:
            evs = self._materialize_events()
            extend = getattr(sink, "extend", None)
            if extend is not None:
                extend(evs)
            else:
                for ev in evs:
                    sink.append(ev)
        probe = self._probe
        if probe is None:
            return
        if probe.enabled and probe.series_enabled and self._series_buf:
            t = self.tables
            labels = [
                (t.nodes[t.queue_node[q]], t.queue_kind[q])
                for q in range(t.n_queues)
            ]
            series = probe.occupancy_series
            for c, lens in self._series_buf:
                for (u, kind), occ in zip(labels, lens.tolist()):
                    series.append((c, u, kind, occ))
            self._series_buf = []

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def run(self, max_cycles: int | None = None) -> SimulationResult:
        """Run until the injection model reports completion.

        Same contract as :meth:`PacketSimulator.run`, minus observer
        halts (the vector engine attaches no fault observers).
        """
        self.injection.setup(self)
        limit = max_cycles if max_cycles is not None else 10_000_000
        try:
            while self.cycle < limit:
                self.step()
                if self.injection.finished(self, self.cycle - 1):
                    break
            else:
                raise CycleLimitExceeded(
                    f"simulation exceeded {limit} cycles with no end in "
                    f"sight: {self.active} of {self.injected_count} "
                    f"injected packets still in flight "
                    f"({self.algorithm.name}; raise max_cycles or check "
                    "for livelock)"
                )
        finally:
            # A run that stalls out still leaves every event up to the
            # stall with the probe, as on the other engines.
            self._flush_telemetry()
        occupancy = {}
        if self.collect_occupancy:
            occupancy = {
                "mean": self.occupancy_mean(),
                "peak": self._occupancy_peaks(),
            }
        result = SimulationResult(
            algorithm=self.algorithm.name,
            topology=self.topology.name,
            pattern=getattr(self.injection, "pattern", None).name
            if getattr(self.injection, "pattern", None)
            else "?",
            injection=self.injection.name,
            cycles=self.cycle,
            injected=self.injected_count,
            delivered=self.delivered_count,
            latency=self.latency,
            attempts=getattr(self.injection, "attempts", 0),
            successes=getattr(self.injection, "successes", 0),
            undelivered=self.active,
            occupancy=occupancy,
        )
        hook = getattr(self._probe, "on_run_end", None)
        if hook is not None:
            hook(self, result)
        return result
