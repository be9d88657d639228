"""Run-time hooks around calls into the simulator's layers.

Nothing here edits the package: every hook is an attribute replaced on
an object or class for the length of one run and put back afterwards
by :meth:`Patches.restore`.

* :class:`RunClock` stamps cycle boundaries (one ``perf_counter`` per
  ``step()``); it is the only hook of an untraced run and gives the
  end-to-end set-up, throughput and tick figures.
* :class:`Tracer` records one span per wrapped call: name, start, end,
  parent span.  Spans stay in memory until the run ends, then go to an
  ``.npz`` file and are folded into per-layer totals by
  :class:`SpanTable`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

_MISSING = object()
clock = time.perf_counter


class Patches:
    """Attribute replacements, all undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._active: list[tuple[Any, str, Any]] = []
        self._history: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        entry = (owner, attr, vars(owner).get(attr, _MISSING))
        self._active.append(entry)
        self._history.append(entry)
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._active:
            owner, attr, old = self._active.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def left_in_place(self) -> int:
        """Replaced attributes that do not hold their original value."""
        originals: dict[tuple[int, str], tuple[Any, Any]] = {}
        for owner, attr, old in self._history:
            originals.setdefault((id(owner), attr), (owner, old))
        return sum(
            vars(owner).get(attr, _MISSING) is not old
            for (_, attr), (owner, old) in originals.items()
        )

    @property
    def installed(self) -> int:
        return len(self._history)


class RunClock:
    """Cycle-boundary timestamps of every simulator a run steps.

    Per simulator: nodes, cycles stepped, first ``step()`` start, last
    ``step()`` end.  Every ``tick_cycles`` cycles the time since the
    previous tick boundary becomes one tick sample; with
    ``tick_cycles=0`` each simulator's whole run is one tick.
    """

    def __init__(self, tick_cycles: int) -> None:
        self.tick_cycles = tick_cycles
        self.first_step: float | None = None
        self.sims: dict[int, list] = {}
        self.ticks: list[float] = []
        self.active_sum = 0
        self.engines: list[str] = []

    def wrap_step(self, step: Callable, bound_sim: Any = None) -> Callable:
        sims = self.sims
        ticks = self.ticks
        tick_cycles = self.tick_cycles

        def timed_step(*args, **kwargs):
            sim = bound_sim if bound_sim is not None else args[0]
            t0 = clock()
            rec = sims.get(id(sim))
            if rec is None:
                if self.first_step is None:
                    self.first_step = t0
                # [nodes, cycles, first start, last end, last tick, sim]
                rec = sims[id(sim)] = [len(sim.nodes), 0, t0, t0, t0, sim]
                self.engines.append(type(sim).__name__)
            elif tick_cycles and sim.cycle % tick_cycles == 0:
                ticks.append(t0 - rec[4])
                rec[4] = t0
            step(*args, **kwargs)
            rec[3] = clock()
            rec[1] += 1
            self.active_sum += sim.active

        return timed_step

    @property
    def cycles(self) -> int:
        return sum(rec[1] for rec in self.sims.values())

    @property
    def node_cycles(self) -> int:
        return sum(rec[0] * rec[1] for rec in self.sims.values())

    @property
    def tick_samples(self) -> list[float]:
        if self.tick_cycles:
            return self.ticks
        return [rec[3] - rec[2] for rec in self.sims.values()]

    @property
    def run_seconds(self) -> float:
        """Seconds spent stepping, summed over simulators."""
        return sum(rec[3] - rec[2] for rec in self.sims.values())


class Tracer:
    """Span recorder for calls made on the main thread.

    Calls from other threads (the serve workload's HTTP server) pass
    through unrecorded, so the parent stack stays single-threaded.
    """

    def __init__(self, patches: Patches) -> None:
        self.patches = patches
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``(span id, name id, start, end, parent span id)``.
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._next = 0
        self._main = threading.get_ident()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        grows: Callable[[tuple], int] | None = None,
        split: bool = False,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``grows(args)`` reads a monotone size before and after the call;
        the growth is added to ``counts[name + ".grown"]`` and, with
        ``split``, the span is named ``name#build`` when the size grew
        and ``name#hit`` otherwise.  ``after(args, result)`` runs once
        the call returned (counters read off arguments or results).
        """
        fn = getattr(owner, attr)
        plain = self._name_id(name)
        build = self._name_id(name + "#build") if split else plain
        hit = self._name_id(name + "#hit") if split else plain
        grown_key = name + ".grown"
        spans = self.spans
        stack = self._stack
        counts = self.counts
        main = self._main
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            idx = self._next
            self._next = idx + 1
            parent = stack[-1]
            stack.append(idx)
            before = grows(args) if grows is not None else 0
            nid = plain
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if grows is not None:
                    delta = grows(args) - before
                    counts[grown_key] += delta
                    if split:
                        nid = build if delta else hit
                spans.append((idx, nid, t0, t1, parent))
            if after is not None:
                after(args, result)
            return result

        self.patches.replace(owner, attr, traced)

    def table(self) -> "SpanTable":
        return SpanTable(self.spans, self.names)

    def save(self, path, run_id: str) -> None:
        tab = self.table()
        np.savez_compressed(
            path,
            run_id=np.array(run_id),
            names=np.array(self.names, dtype=str),
            name=tab.name,
            start=tab.start,
            end=tab.end,
            parent=tab.parent,
        )


class SpanTable:
    """Columnar spans indexed by span id (ids are dense from 0)."""

    def __init__(self, spans: list, names: list[str]) -> None:
        self.names = names
        n = len(spans)
        arr = np.array(spans, dtype=np.float64).reshape(n, 5)
        order = np.argsort(arr[:, 0], kind="stable")
        arr = arr[order]
        self.name = arr[:, 1].astype(np.int64)
        self.start = arr[:, 2]
        self.end = arr[:, 3]
        self.parent = arr[:, 4].astype(np.int64)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        self.child_time = np.bincount(
            self.parent[has_parent],
            weights=self.dur[has_parent],
            minlength=n,
        )

    def _mask(self, names) -> np.ndarray:
        wanted = set(names)
        ids = [i for i, nm in enumerate(self.names) if nm in wanted]
        return np.isin(self.name, ids)

    def inclusive(self, *names: str) -> float:
        """Wall time inside the named spans, nested repeats counted once."""
        inset = self._mask(names)
        nested = np.zeros(inset.size, dtype=bool)
        p = self.parent.copy()
        live = p >= 0
        while live.any():
            idx = np.flatnonzero(live)
            nested[idx] |= inset[p[idx]]
            p[idx] = self.parent[p[idx]]
            live = p >= 0
        return float(self.dur[inset & ~nested].sum())

    def self_time(self, *names: str) -> float:
        """Time in the named spans minus the time their children cover."""
        inset = self._mask(names)
        return float((self.dur - self.child_time)[inset].sum())

    def count(self, *names: str) -> int:
        return int(self._mask(names).sum())

    def tail_after_children(self, parent_name: str, child_name: str) -> float:
        """Per ``parent_name`` span: its end minus its last child's end."""
        parents = np.flatnonzero(self._mask([parent_name]))
        kids = np.flatnonzero(self._mask([child_name]))
        total = 0.0
        for p in parents.tolist():
            mine = kids[self.parent[kids] == p]
            if mine.size:
                total += float(self.end[p] - self.end[mine].max())
        return total

    def first_start(self, name: str) -> float | None:
        hits = np.flatnonzero(self._mask([name]))
        return float(self.start[hits].min()) if hits.size else None

    def last_end(self, name: str) -> float | None:
        hits = np.flatnonzero(self._mask([name]))
        return float(self.end[hits].max()) if hits.size else None
