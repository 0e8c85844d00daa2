"""Partial-DAG machinery: skeleton search, orientation, metrics, d-separation.

A :class:`PDag` is a mixed graph over named nodes whose edges carry either a
direction or no direction, with at most one edge per pair. It serves as
skeleton, CPDAG and DAG representation throughout. It holds each edge as
one mark at each of its two ends, in one adjacency map, and walks its
directed part iteratively, so a path of any length is ordered without
recursion.

Every other reachability question goes through one lazy walk: :func:`_walk`
yields the nodes a step function reaches, each once, and :func:`_reaches`
runs two of them towards each other (down from one node, up from the other)
and stops at the first meeting or when either runs out.
"""
from __future__ import annotations

import logging
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

from .blanket import _check_search, _Terms
from .blanket import score_partition  # noqa: F401  (still importable from this module)
from .citests import IndependenceTest
from .nml import RegretTable
from .table import CategoricalTable

log = logging.getLogger(__name__)

_N = TypeVar("_N", bound=Hashable)

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

# the mark at v's end of an edge v, w: v -> w, w -> v, or v - w
_OUT, _IN, _UND = "out", "in", "und"
_MIRROR = {_OUT: _IN, _IN: _OUT, _UND: _UND}


class PDag:
    """Mixed graph with directed and undirected edge marks.

    ``_adj[v][w]`` is the mark at v's end of the edge between v and w, and
    ``_adj[w][v]`` its mirror; a pair without an edge is in neither map.
    Every writer sets or pops both ends at once, so a pair holds at most one
    edge and every parent lists its child by construction.
    """

    def __init__(self, nodes: Iterable[str]):
        self.nodes: tuple[str, ...] = tuple(nodes)
        self._adj: dict[str, dict[str, str]] = {v: {} for v in self.nodes}
        if len(self._adj) != len(self.nodes):
            raise ValueError("duplicate node names")

    # -- construction -----------------------------------------------------
    def _add(self, a: str, b: str, mark: str) -> None:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        if a not in self._adj or b not in self._adj:
            raise KeyError(f"unknown node in edge {a!r}-{b!r}")
        if b in self._adj[a]:
            raise ValueError(f"pair {a!r},{b!r} already has an edge")
        self._adj[a][b], self._adj[b][a] = mark, _MIRROR[mark]

    def add_directed(self, a: str, b: str) -> None:
        self._add(a, b, _OUT)

    def add_undirected(self, a: str, b: str) -> None:
        self._add(a, b, _UND)

    def remove_edge(self, a: str, b: str) -> None:
        self._adj[a].pop(b, None)
        self._adj[b].pop(a, None)

    def orient(self, a: str, b: str) -> None:
        """Turn the undirected edge a - b into a -> b."""
        if self._adj[a].get(b) != _UND:
            raise ValueError(f"no undirected edge {a!r}-{b!r}")
        self._adj[a][b], self._adj[b][a] = _OUT, _IN

    def copy(self) -> "PDag":
        g = PDag(self.nodes)
        g._adj = {v: dict(ends) for v, ends in self._adj.items()}
        return g

    # -- queries ----------------------------------------------------------
    def _marked(self, v: str, mark: str) -> set[str]:
        return {w for w, m in self._adj[v].items() if m == mark}

    def has_directed(self, a: str, b: str) -> bool:
        return self._adj[a].get(b) == _OUT

    def has_undirected(self, a: str, b: str) -> bool:
        return self._adj[a].get(b) == _UND

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj[a]

    def parents(self, v: str) -> set[str]:
        return self._marked(v, _IN)

    def children(self, v: str) -> set[str]:
        return self._marked(v, _OUT)

    def undirected_neighbors(self, v: str) -> set[str]:
        return self._marked(v, _UND)

    def adjacent(self, v: str) -> set[str]:
        return set(self._adj[v])

    def directed_edges(self) -> list[tuple[str, str]]:
        return sorted((a, b) for a in self.nodes for b in self._marked(a, _OUT))

    def undirected_edges(self) -> list[tuple[str, str]]:
        return sorted((a, b) for a in self.nodes for b in self._marked(a, _UND) if a < b)

    def is_acyclic(self) -> bool:
        """Whether the directed part has no cycle (undirected marks ignored)."""
        try:
            self.topological_order()
        except ValueError:
            return False
        return True

    def topological_order(self) -> list[str]:
        """Depth-first post-order reversed, roots and children in name order.

        The walk keeps its own stack of (node, children left) instead of
        recursing, so a directed path of any length is ordered;
        :func:`climb.sampling.forward_sample` draws in this order.
        """
        order: list[str] = []
        done: set[str] = set()
        for root in sorted(self.nodes):
            if root in done:
                continue
            on_path = {root}
            stack = [(root, iter(sorted(self.children(root))))]
            while stack:
                v, todo = stack[-1]
                for w in todo:
                    if w in on_path:
                        raise ValueError("graph has a directed cycle")
                    if w not in done:
                        on_path.add(w)
                        stack.append((w, iter(sorted(self.children(w)))))
                        break
                else:
                    stack.pop()
                    on_path.discard(v)
                    done.add(v)
                    order.append(v)
        order.reverse()
        return order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDag):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        directed, undirected = len(self.directed_edges()), len(self.undirected_edges())
        return f"PDag({len(self.nodes)} nodes, {directed} directed, {undirected} undirected)"

    # -- serialization ----------------------------------------------------
    def to_json_obj(self) -> dict:
        edges = [{"a": a, "b": b, "directed": True} for a, b in self.directed_edges()]
        edges += [{"a": a, "b": b, "directed": False} for a, b in self.undirected_edges()]
        return {"nodes": list(self.nodes), "edges": edges}

    @staticmethod
    def from_json_obj(obj: object) -> "PDag":
        """Inverse of :meth:`to_json_obj`; ``ValueError`` names the first bad field."""
        _json_typed(obj, dict, "partial DAG")
        nodes = _json_field(obj, "nodes", list, "partial DAG")
        edges = _json_field(obj, "edges", list, "partial DAG")
        g = PDag(_json_typed(v, str, f"partial DAG node {i}") for i, v in enumerate(nodes))
        for i, e in enumerate(edges):
            where = f"partial DAG edge {i}"
            _json_typed(e, dict, where)
            a, b = (_json_field(e, key, str, where) for key in ("a", "b"))
            g._add(a, b, _OUT if _json_field(e, "directed", bool, where) else _UND)
        return g


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def _json_typed(value, kind: type, where: str):
    """``value``, or ``ValueError`` naming ``where`` unless it decoded as ``kind``."""
    if not isinstance(value, kind):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{where} must be a JSON {_JSON_TYPES[kind]}, got {got}")
    return value


def _json_field(obj: Mapping, key: str, kind: type, where: str):
    """``obj[key]`` checked by :func:`_json_typed`; ``ValueError`` when absent."""
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    return _json_typed(obj[key], kind, f"{where} field {key!r}")


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
    that level (smallest strength, names breaking ties), which keeps
    downstream collider detection off spuriously-independent subsets. G²'s
    strength ``1 - p`` is exactly 1.0 for every p <= 2^-54, which only
    dependent verdicts reach, so that does not touch this choice; but a G²
    verdict left untested (too few samples per degree of freedom) reads
    p = 1.0, so such verdicts tie and their sets go by name (ROADMAP item 1).
    """
    _check_search(table, test, max_cond)
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
        # every query of the level, once per pair and distinct set, batched
        # by (base, z): one kernel call answers every other node of a batch
        edges = g.undirected_edges()
        batches: dict[tuple[int, tuple[int, ...]], list[tuple[int, int, tuple[str, ...]]]] = {}
        for pair, (a, b) in enumerate(edges):
            seen: set[frozenset[str]] = set()
            for base, other in ((a, b), (b, a)):
                # level 0 asks z = () once per pair, from its first side
                pool = [v for v in adj[base] if v != other] if level else []
                for zs in combinations(pool, level):
                    key = frozenset(zs)
                    if key in seen:
                        continue
                    seen.add(key)
                    z = tuple(idx[v] for v in zs)
                    batches.setdefault((idx[base], z), []).append((pair, idx[other], zs))
        best: list[tuple[float, tuple[str, ...]] | None] = [None] * len(edges)
        for (base, z), asked in batches.items():
            verdicts = test.many(base, [other for _, other, _ in asked], z)
            for (pair, _, zs), verdict in zip(asked, verdicts):
                if verdict.independent:
                    cand = (test.strength(verdict), tuple(sorted(zs)))
                    if best[pair] is None or cand < best[pair]:
                        best[pair] = cand
        for (a, b), found in zip(edges, best):
            if found is not None:
                g.remove_edge(a, b)
                sepsets[frozenset((a, b))] = frozenset(found[1])
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
                    g.remove_edge(tail, c)
                    g.add_directed(tail, c)
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
    the result is reported, not repaired. ``ValueError`` names the nodes of
    ``pdag`` that are not columns of ``table``, before any scoring.

    Each term a score sums (a column alone, a child given the target, the
    target given its parent set) is computed once per call and summed in
    :func:`climb.blanket.score_partition`'s order (``blanket._Terms``), so
    every score is the float ``score_partition`` gives.
    """
    idx = {v: i for i, v in enumerate(table.names)}
    missing = [v for v in pdag.nodes if v not in idx]
    if missing:
        raise ValueError(f"partial DAG nodes absent from the data: {', '.join(map(repr, missing))}")
    work = pdag.copy()
    terms = _Terms(table, regrets)

    def node_cost(v: str, parents: set[str], children: set[str]) -> float:
        return terms.score(idx[v], [idx[p] for p in parents], [idx[c] for c in children])

    # orienting one pair leaves every other mark alone, so the pairs left
    # undirected are always the tail of the sorted list taken here
    for a, b in work.undirected_edges():
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
    """Precision, recall and F1 over directed edges only, scored as :func:`set_metrics` scores sets.

    An edge counts as a true positive only when present with the correct
    orientation; undirected predicted edges never do.
    """
    if set(predicted.nodes) != set(truth.nodes):
        raise ValueError("graphs must share a node set")
    pred = set(predicted.directed_edges())
    true = set(truth.directed_edges())
    return _prf(len(pred & true), len(pred), len(true))


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
) -> tuple[float, float, float] | tuple[None, None, None]:
    """Per-target blanket metrics averaged over the targets of ``truth``.

    With ``roles=False`` the values are plain member sets. With
    ``roles=True`` they map role name to member set, a member counts only in
    its true role, and predicted members under extra roles (for instance
    ``undecided``) count against precision but never match; extra truth
    roles are ignored. With no target there is nothing to score, and all
    three are ``None``.
    """
    ps, rs, fs = [], [], []
    for target in sorted(truth):
        true_val = truth[target]
        pred_val = predicted.get(target, {})
        if roles:
            tp = sum(
                len(set(pred_val.get(r, ())) & set(true_val.get(r, ()))) for r in _ROLES
            )
            n_pred = sum(len(v) for v in pred_val.values())
            n_true = sum(len(set(true_val.get(r, ()))) for r in _ROLES)
            p, r, f = _prf(tp, n_pred, n_true)
        else:
            p, r, f = set_metrics(set(pred_val), set(true_val))
        ps.append(p)
        rs.append(r)
        fs.append(f)
    if not ps:
        return None, None, None
    return sum(ps) / len(ps), sum(rs) / len(rs), sum(fs) / len(fs)


# -- reachability ------------------------------------------------------------


def _walk(starts: Iterable[_N], step: Callable[[_N], Iterable[_N]]) -> Iterator[_N]:
    """``starts``, then every new node that ``step`` reaches from a yielded one.

    Each node is yielded once, as soon as it is found, so a caller that stops
    early pays only for what it read.
    """
    todo = list(dict.fromkeys(starts))
    seen = set(todo)
    yield from todo
    while todo:
        for w in step(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
                yield w


def _reaches(a: _N, b: _N, down: Callable[[_N], Iterable[_N]], up: Callable[[_N], Iterable[_N]]) -> bool:
    """Whether ``down`` steps lead from ``a`` to ``b``; ``up`` must be their reverse.

    A walk down from ``a`` and one up from ``b`` advance in turn, so the
    answer costs at most twice the smaller of the two closures.
    """
    return any(d == b or u == a for d, u in zip(_walk([a], down), _walk([b], up)))


# -- ground-truth oracle ----------------------------------------------------


def d_separated(dag: PDag, x: str, y: str, z: Iterable[str]) -> bool:
    """Whether z blocks every active path between x and y in a DAG.

    Standard reachability over active trails (Bayes-Ball): colliders stay
    passable only while an ancestor of the conditioning set, everything else
    only while outside it. ``ValueError`` names a node of x, y or z that is
    not in ``dag``, and refuses a graph with undirected edges.
    """
    if dag.undirected_edges():
        raise ValueError("d-separation needs a fully directed graph")
    z = tuple(z)
    for v in (x, y, *z):
        if v not in dag._adj:
            raise ValueError(f"{v!r} is not a node of the graph")
    zset = set(z)
    anc = set(_walk(zset, dag.parents))

    # (node, direction) states: True = entered through an arrow into the node
    def step(state: tuple[str, bool]) -> list[tuple[str, bool]]:
        v, inbound = state
        out = [] if v in zset else [(c, True) for c in dag.children(v)]
        if (v in anc) if inbound else (v not in zset):
            out += [(p, False) for p in dag.parents(v)]
        return out

    return y in zset or not any(v == y for v, _ in _walk([(x, False)], step))
