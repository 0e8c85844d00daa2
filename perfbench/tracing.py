"""Spans and counters for the traced run, attached from outside the package.

``Tracer.installed()`` replaces public ``climb`` functions where their
callers look them up (for example ``climb.blanket.group_labels``, which
``score_partition`` and ``find_best_partition`` call) with wrappers that
record one span per call: name, start, end and parent span.  Spans stay in
memory; ``write`` stores them when the run ends.  A span's self time is its
duration minus the time its child spans cover, summed per span name as the
calls return.  Counters that need a call's arguments (query keys,
conditioning-set sizes, regret entries filled) are taken in the same
wrappers.
"""
from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from climb import bif, blanket, citests, csvio, graph, netgen, sampling
from climb.citests import IndependenceTest
from climb.nml import RegretTable


class Tracer:
    """Span recorder with per-name self time, call counts and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh tally; recorded spans are kept for ``write``."""
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self._distinct: dict[int, set] = {}
        self._tests: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.self_s, self.total_s, self.calls):
                col.append(0)
        return self._ids[name]

    def _push(self, nid: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> float:
        end = perf_counter()
        idx, child, start = frame
        self._stack.pop()
        dur = end - start
        self.span_start[idx] = start
        self.span_end[idx] = end
        nid = self.span_name[idx]
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def wrap(self, name: str, fn, pre=None, post=None):
        """``fn`` inside a span; ``pre(*args)`` runs first, ``post(token, dur, ok)`` after."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            token = pre(*args, **kwargs) if pre else None
            frame = self._push(nid)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dur = self._pop(frame)
                if post:
                    post(token, dur, ok)

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at the call boundaries -------------------------------
    def _query(self, test, x, y, z=()) -> None:
        z = tuple(z)
        self.counts["citests.queries"] += 1
        self.counts[f"citests.queries_z{len(z)}"] += 1
        seen = self._distinct.get(id(test))
        if seen is None:
            seen = self._distinct[id(test)] = set()
            self._tests.append(test)  # keeps the id unique for the tally
        seen.add((min(x, y), max(x, y), tuple(sorted(z))))

    def _g2(self, q, alpha=0.01, min_samples_per_dof=10.0) -> None:
        cards = q.table.cards
        dof = (cards[q.x] - 1) * (cards[q.y] - 1)
        for c in q.z:
            dof *= cards[c]
        if dof <= 0 or q.table.n < min_samples_per_dof * dof:
            self.counts["citests.g2.untested"] += 1

    def _group_labels(self, table, cols) -> None:
        radix = 1
        for c in cols:
            radix *= table.cards[c]
        # mirrors the cut in climb.table.group_labels
        if cols and radix > 4 * table.n + 64:
            self.counts["table.group_labels.sort_path_calls"] += 1

    def _regret_pre(self, regrets, card, _n):
        return regrets, card, regrets.filled_upto(card)

    def _regret_post(self, token, dur: float, ok: bool) -> None:
        regrets, card, before = token
        filled = regrets.filled_upto(card) - before
        if filled > 0:
            self.counts["nml.regret.entries_filled"] += filled
            self.times["nml.regret.fill_s"] += dur

    def _partition_pre(self, table, target, pc_set, cap=20, regrets=None):
        return len(pc_set), cap

    def _partition_post(self, token, dur: float, ok: bool) -> None:
        k, cap = token
        if k > cap:
            self.counts["blanket.partition_cap_errors"] += 1
            return
        self.counts["blanket.partition.subsets"] += 1 << k
        bucket = "le5" if k <= 5 else "6to8" if k <= 8 else "9to10" if k <= 10 else "11to12" if k <= 12 else "gt12"
        self.times[f"blanket.partition.s_pc_{bucket}"] += dur

    def _score_partition(self, *args, **kwargs) -> None:
        if self._stack and self.names[self.span_name[self._stack[-1][0]]] == "graph.climb_orient":
            self.counts["graph.climb_orient.score_partition_calls"] += 1

    def distinct_queries(self) -> int:
        return sum(len(s) for s in self._distinct.values())

    @contextmanager
    def installed(self):
        """Swap the traced wrappers in for the duration of the block."""
        patches = [
            (citests, "group_labels", "table.group_labels", self._group_labels, None),
            (blanket, "group_labels", "table.group_labels", self._group_labels, None),
            (citests, "conditional_sc", "nml.conditional_sc", None, None),
            (blanket, "conditional_sc", "nml.conditional_sc", None, None),
            (blanket, "stochastic_complexity", "nml.stochastic_complexity", None, None),
            (RegretTable, "log_regret", "nml.regret", self._regret_pre, self._regret_post),
            (RegretTable, "log_regret_many", "nml.regret", self._regret_pre, self._regret_post),
            (IndependenceTest, "__call__", "citests.query", self._query, None),
            (citests, "sci", "citests.sci", None, None),
            (citests, "g2_test", "citests.g2", self._g2, None),
            (blanket, "find_pc", "blanket.find_pc", None, None),
            (blanket, "find_best_partition", "blanket.find_best_partition",
             self._partition_pre, self._partition_post),
            (blanket, "climb", "blanket.climb", None, None),
            (graph, "score_partition", "blanket.score_partition", self._score_partition, None),
            (graph, "pc_stable_skeleton", "graph.pc_stable_skeleton", None, None),
            (graph, "orient_cpdag", "graph.orient_cpdag", None, None),
            (graph, "climb_orient", "graph.climb_orient", None, None),
            (bif, "parse_bif", "bif.parse_bif", None, None),
            (csvio, "write_csv", "csvio.write_csv", None, None),
            (csvio, "load_csv", "csvio.load_csv", None, None),
            (sampling, "forward_sample", "sampling.forward_sample", None, None),
            (netgen, "random_net", "netgen.random_net", None, None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in patches]
        try:
            for owner, attr, name, pre, post in patches:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), pre, post))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # -- summaries ------------------------------------------------------------
    def total(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_s[nid]

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def ncalls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def layer_self(self, layer: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s) if n.split(".", 1)[0] == layer)

    def write(self, path: Path) -> None:
        """Store every recorded span: name id, parent index, start and end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
