"""Partial-DAG machinery: skeleton search, orientation, metrics, d-separation.

A :class:`PDag` is a mixed graph over named nodes whose edges carry either a
direction or no direction, with at most one edge per pair. It serves as
skeleton, CPDAG and DAG representation throughout.
"""
from __future__ import annotations

import logging
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .blanket import Partition, score_partition
from .citests import IndependenceTest
from .nml import RegretTable
from .table import CategoricalTable

log = logging.getLogger(__name__)

__all__ = [
    "PDag",
    "pc_stable_skeleton",
    "orient_cpdag",
    "climb_orient",
    "directed_edge_metrics",
    "mb_set_metrics",
    "set_metrics",
    "d_separated",
]


class PDag:
    """Mixed graph with directed and undirected edge marks."""

    def __init__(self, nodes: Iterable[str]):
        self.nodes: tuple[str, ...] = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        self._out: dict[str, set[str]] = {v: set() for v in self.nodes}
        self._in: dict[str, set[str]] = {v: set() for v in self.nodes}
        self._und: dict[str, set[str]] = {v: set() for v in self.nodes}

    # -- construction -----------------------------------------------------
    def _check_pair(self, a: str, b: str) -> None:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        if a not in self._out or b not in self._out:
            raise KeyError(f"unknown node in edge {a!r}-{b!r}")
        if self.has_edge(a, b):
            raise ValueError(f"pair {a!r},{b!r} already has an edge")

    def add_directed(self, a: str, b: str) -> None:
        self._check_pair(a, b)
        self._out[a].add(b)
        self._in[b].add(a)

    def add_undirected(self, a: str, b: str) -> None:
        self._check_pair(a, b)
        self._und[a].add(b)
        self._und[b].add(a)

    def remove_edge(self, a: str, b: str) -> None:
        self._out[a].discard(b)
        self._out[b].discard(a)
        self._in[a].discard(b)
        self._in[b].discard(a)
        self._und[a].discard(b)
        self._und[b].discard(a)

    def orient(self, a: str, b: str) -> None:
        """Turn the undirected edge a - b into a -> b."""
        if b not in self._und[a]:
            raise ValueError(f"no undirected edge {a!r}-{b!r}")
        self._und[a].discard(b)
        self._und[b].discard(a)
        self._out[a].add(b)
        self._in[b].add(a)

    def orient_force(self, a: str, b: str) -> None:
        """Set the pair's mark to a -> b regardless of its current mark."""
        self.remove_edge(a, b)
        self.add_directed(a, b)

    def copy(self) -> "PDag":
        g = PDag(self.nodes)
        g._out = {v: set(s) for v, s in self._out.items()}
        g._in = {v: set(s) for v, s in self._in.items()}
        g._und = {v: set(s) for v, s in self._und.items()}
        return g

    # -- queries ----------------------------------------------------------
    def has_directed(self, a: str, b: str) -> bool:
        return b in self._out[a]

    def has_undirected(self, a: str, b: str) -> bool:
        return b in self._und[a]

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._out[a] or a in self._out[b] or b in self._und[a]

    def parents(self, v: str) -> set[str]:
        return set(self._in[v])

    def children(self, v: str) -> set[str]:
        return set(self._out[v])

    def undirected_neighbors(self, v: str) -> set[str]:
        return set(self._und[v])

    def adjacent(self, v: str) -> set[str]:
        return self._in[v] | self._out[v] | self._und[v]

    def directed_edges(self) -> list[tuple[str, str]]:
        return sorted((a, b) for a in self.nodes for b in self._out[a])

    def undirected_edges(self) -> list[tuple[str, str]]:
        return sorted((a, b) for a in self.nodes for b in self._und[a] if a < b)

    def is_acyclic(self) -> bool:
        """Whether the directed part has no cycle (undirected marks ignored)."""
        state: dict[str, int] = {}

        def visit(v: str) -> bool:
            state[v] = 1
            for w in self._out[v]:
                s = state.get(w, 0)
                if s == 1 or (s == 0 and not visit(w)):
                    return False
            state[v] = 2
            return True

        return all(state.get(v, 0) == 2 or visit(v) for v in self.nodes)

    def topological_order(self) -> list[str]:
        order: list[str] = []
        state: dict[str, int] = {}

        def visit(v: str) -> None:
            state[v] = 1
            for w in sorted(self._out[v]):
                s = state.get(w, 0)
                if s == 1:
                    raise ValueError("graph has a directed cycle")
                if s == 0:
                    visit(w)
            state[v] = 2
            order.append(v)

        for v in sorted(self.nodes):
            if state.get(v, 0) == 0:
                visit(v)
        order.reverse()
        return order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDag):
            return NotImplemented
        return (
            set(self.nodes) == set(other.nodes)
            and self.directed_edges() == other.directed_edges()
            and self.undirected_edges() == other.undirected_edges()
        )

    def __repr__(self) -> str:
        return (
            f"PDag({len(self.nodes)} nodes, {len(self.directed_edges())} directed, "
            f"{len(self.undirected_edges())} undirected)"
        )

    # -- serialization ----------------------------------------------------
    def to_json_obj(self) -> dict:
        edges = [{"a": a, "b": b, "directed": True} for a, b in self.directed_edges()]
        edges += [{"a": a, "b": b, "directed": False} for a, b in self.undirected_edges()]
        return {"nodes": list(self.nodes), "edges": edges}

    @staticmethod
    def from_json_obj(obj: Mapping) -> "PDag":
        g = PDag(obj["nodes"])
        for e in obj["edges"]:
            if e["directed"]:
                g.add_directed(e["a"], e["b"])
            else:
                g.add_undirected(e["a"], e["b"])
        return g


# -- skeleton search -------------------------------------------------------


def pc_stable_skeleton(
    table: CategoricalTable,
    test: IndependenceTest,
    max_cond: int = 3,
) -> tuple[PDag, dict[frozenset[str], frozenset[str]]]:
    """Order-independent level-wise skeleton over the table's columns.

    At level l every remaining pair is tested against all size-l subsets of
    the adjacency sets frozen at the start of the level; removals commit at
    level end. A removed pair records the most clearly separating set of
    that level (smallest test statistic, names breaking ties), which keeps
    downstream collider detection off spuriously-independent subsets.
    """
    names = table.names
    idx = {v: i for i, v in enumerate(names)}
    g = PDag(names)
    for a, b in combinations(sorted(names), 2):
        g.add_undirected(a, b)
    sepsets: dict[frozenset[str], frozenset[str]] = {}

    level = 0
    while level <= max_cond:
        adj = {v: sorted(g.adjacent(v)) for v in names}
        if all(len(adj[v]) - 1 < level for v in names):
            break
        to_remove: list[tuple[str, str, frozenset[str]]] = []
        for a, b in g.undirected_edges():
            best: tuple[float, tuple[str, ...]] | None = None
            seen: set[frozenset[str]] = set()
            for base in (a, b):
                other = b if base == a else a
                pool = [v for v in adj[base] if v != other]
                if len(pool) < level:
                    continue
                for zs in combinations(pool, level):
                    key = frozenset(zs)
                    if key in seen:
                        continue
                    seen.add(key)
                    verdict = test(idx[base], idx[other], tuple(idx[v] for v in zs))
                    if verdict.independent:
                        cand = (test.strength(verdict), tuple(sorted(zs)))
                        if best is None or cand < best:
                            best = cand
            if best is not None:
                to_remove.append((a, b, frozenset(best[1])))
        for a, b, sep in to_remove:
            g.remove_edge(a, b)
            sepsets[frozenset((a, b))] = sep
        level += 1
    return g, sepsets


# -- orientation -----------------------------------------------------------


def orient_cpdag(skeleton: PDag, sepsets: Mapping[frozenset[str], frozenset[str]]) -> PDag:
    """Collider orientation plus closure rules; adjacencies stay untouched.

    Non-adjacent a, b with a common neighbour c outside their separating set
    orient a -> c <- b; conflicting collider claims resolve last-write with a
    warning. The four standard closure rules then run to a fixpoint.
    """
    g = skeleton.copy()
    nodes = sorted(g.nodes)
    for a, b in combinations(nodes, 2):
        if g.has_edge(a, b):
            continue
        sep = sepsets.get(frozenset((a, b)))
        if sep is None:
            continue
        for c in sorted(skeleton.adjacent(a) & skeleton.adjacent(b)):
            if c in sep:
                continue
            for tail in (a, b):
                if g.has_undirected(tail, c):
                    g.orient(tail, c)
                elif g.has_directed(c, tail):
                    log.warning(
                        "conflicting collider orientations at %s: rewriting %s -> %s",
                        c,
                        tail,
                        c,
                    )
                    g.orient_force(tail, c)
    _apply_closure_rules(g)
    return g


def _apply_closure_rules(g: PDag) -> None:
    changed = True
    while changed:
        changed = False
        for a, b in g.undirected_edges():
            for x, y in ((a, b), (b, a)):
                if _closure_orients(g, x, y):
                    g.orient(x, y)
                    changed = True
                    break


def _closure_orients(g: PDag, x: str, y: str) -> bool:
    """Whether the undirected edge x - y must become x -> y."""
    # chain z -> x with z, y non-adjacent
    for z in g.parents(x):
        if z != y and not g.has_edge(z, y):
            return True
    # directed path x -> z -> y
    for z in g.children(x):
        if g.has_directed(z, y):
            return True
    # two non-adjacent z, w with x - z -> y and x - w -> y
    into_y = [z for z in g.parents(y) if g.has_undirected(x, z)]
    for z, w in combinations(sorted(into_y), 2):
        if not g.has_edge(z, w):
            return True
    # x - z -> w -> y with z, y non-adjacent and x, w adjacent
    for z in g.undirected_neighbors(x):
        if z == y or g.has_edge(z, y):
            continue
        for w in g.children(z):
            if w != y and g.has_directed(w, y) and g.has_edge(x, w):
                return True
    return False


def climb_orient(
    pdag: PDag,
    table: CategoricalTable,
    regrets: RegretTable | None = None,
) -> PDag:
    """Direct every undirected edge by minimum neighbourhood code length.

    Undirected edges first count as mutual parents. They are then resolved
    one pair at a time in sorted order: both one-way assignments are priced
    as the summed partition scores of the two endpoints against the current
    working graph, and the cheaper direction is kept. The directed part of
    the input is preserved verbatim; a cycle through three or more nodes in
    the result is reported, not repaired.
    """
    work = pdag.copy()
    idx = {v: i for i, v in enumerate(table.names)}

    def node_cost(v: str, parents: set[str], children: set[str]) -> float:
        part = Partition(
            frozenset(idx[p] for p in parents),
            frozenset(idx[c] for c in children),
        )
        return score_partition(table, idx[v], part, regrets)

    while True:
        und = work.undirected_edges()
        if not und:
            break
        a, b = und[0]
        # unresolved partners count as parents on both sides
        pa_a = work.parents(a) | work.undirected_neighbors(a) - {b}
        ch_a = work.children(a)
        pa_b = work.parents(b) | work.undirected_neighbors(b) - {a}
        ch_b = work.children(b)
        cost_b_to_a = node_cost(a, pa_a | {b}, ch_a) + node_cost(b, pa_b, ch_b | {a})
        cost_a_to_b = node_cost(a, pa_a, ch_a | {b}) + node_cost(b, pa_b | {a}, ch_b)
        if cost_b_to_a < cost_a_to_b:
            work.orient(b, a)
        else:
            work.orient(a, b)
    if not work.is_acyclic():
        log.warning("orientation left a directed cycle through three or more nodes")
    return work


# -- metrics ---------------------------------------------------------------


def directed_edge_metrics(predicted: PDag, truth: PDag) -> tuple[float, float, float]:
    """Precision, recall and F1 over directed edges only.

    An edge counts as a true positive only when present with the correct
    orientation; undirected predicted edges never do.
    """
    if set(predicted.nodes) != set(truth.nodes):
        raise ValueError("graphs must share a node set")
    pred = set(predicted.directed_edges())
    true = set(truth.directed_edges())
    tp = len(pred & true)
    precision = tp / len(pred) if pred else (1.0 if not true else 0.0)
    recall = tp / len(true) if true else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _prf(tp: int, n_pred: int, n_true: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from overlap counts, empty-vs-empty scoring perfect."""
    if n_pred == 0 and n_true == 0:
        return 1.0, 1.0, 1.0
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_true if n_true else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def set_metrics(predicted: set, truth: set) -> tuple[float, float, float]:
    """Set-overlap precision/recall/F1 with empty-vs-empty scoring perfect."""
    return _prf(len(set(predicted) & set(truth)), len(predicted), len(truth))


_ROLES = ("parents", "children", "spouses")


def mb_set_metrics(
    predicted: Mapping[str, object],
    truth: Mapping[str, object],
    roles: bool = False,
) -> tuple[float, float, float]:
    """Per-target blanket metrics averaged over targets.

    With ``roles=False`` the values are plain member sets. With
    ``roles=True`` they map role name to member set, a member counts only in
    its true role, and predicted members under extra roles (for instance
    ``undecided``) count against precision but never match.
    """
    ps, rs, fs = [], [], []
    for target in sorted(truth):
        true_val = truth[target]
        pred_val = predicted.get(target, {} if roles else set())
        if roles:
            tp = sum(
                len(set(pred_val.get(r, ())) & set(true_val.get(r, ()))) for r in _ROLES
            )
            n_pred = sum(len(v) for v in pred_val.values())
            n_true = sum(len(set(true_val.get(r, ()))) for r in _ROLES)
        else:
            tp = len(set(pred_val) & set(true_val))
            n_pred = len(set(pred_val))
            n_true = len(set(true_val))
        p, r, f = _prf(tp, n_pred, n_true)
        ps.append(p)
        rs.append(r)
        fs.append(f)
    if not ps:
        return 1.0, 1.0, 1.0
    return sum(ps) / len(ps), sum(rs) / len(rs), sum(fs) / len(fs)


# -- ground-truth oracle ----------------------------------------------------


def d_separated(dag: PDag, x: str, y: str, z: Iterable[str]) -> bool:
    """Whether z blocks every active path between x and y in a DAG.

    Standard reachability over active trails: colliders stay passable only
    while an ancestor of the conditioning set, everything else only while
    outside it.
    """
    if dag.undirected_edges():
        raise ValueError("d-separation needs a fully directed graph")
    zset = set(z)
    anc = set(zset)
    stack = list(zset)
    while stack:
        for p in dag.parents(stack.pop()):
            if p not in anc:
                anc.add(p)
                stack.append(p)
    # (node, direction) states: True = entered through an arrow into the node
    seen: set[tuple[str, bool]] = set()
    frontier: list[tuple[str, bool]] = [(x, False)]
    while frontier:
        v, inbound = frontier.pop()
        if (v, inbound) in seen:
            continue
        seen.add((v, inbound))
        if v == y and v not in zset:
            return False
        if not inbound:
            if v not in zset:
                for p in dag.parents(v):
                    frontier.append((p, False))
                for c in dag.children(v):
                    frontier.append((c, True))
        else:
            if v not in zset:
                for c in dag.children(v):
                    frontier.append((c, True))
            if v in anc:
                for p in dag.parents(v):
                    frontier.append((p, False))
    return True
