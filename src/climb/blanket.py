"""Directed (causal) Markov blanket discovery.

``find_pc`` recovers the parents-and-children set of a target with a
one-pass grow-shrink search in the style of HITON-PC (Aliferis et al., JMLR
11, 2010) and MMPC (Tsamardinos, Brown & Aliferis, MLJ 65, 2006): candidates
join strongest first, and each newcomer triggers a re-test of the earlier
members against only the subsets that hold it, so no subset of up to
``max_cond`` of the final set separates a member. AND symmetry correction
follows, so every member's own set holds the target. ``score_partition``
prices a split of that set into parents and children by total code length,
and ``find_best_partition`` minimizes it exhaustively, scoring each subset of
a depth-first walk from one count array over (subset grouping, new member,
target). ``climb`` combines the two and then walks the children to pick up
spouses, yielding the causal blanket; symmetry is settled in ``find_pc``, so
``climb`` does not check it again.

``pcmb`` is the classical reference blanket algorithm (candidate set with
repeated re-ranking, symmetry filter, spouse search over the whole
parents-and-children set). It returns the same blanket on faithful data but
spends far more independence tests; the benchmark harness compares both.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Collection

import numpy as np

from .citests import CiVerdict, IndependenceTest
from .nml import RegretTable, _code_bits, _count_bits_table, _row_sums, conditional_sc
from .nml import stochastic_complexity  # noqa: F401  (still importable from this module)
from .table import CategoricalTable, _compact, _countable, group_labels, refine_labels

__all__ = [
    "Partition",
    "BlanketResult",
    "PartitionCapError",
    "find_pc",
    "score_partition",
    "find_best_partition",
    "climb",
    "pcmb",
]


@dataclass(frozen=True)
class Partition:
    """A split of a parents-and-children set into the two roles."""

    parents: frozenset[int]
    children: frozenset[int]


@dataclass(frozen=True)
class BlanketResult:
    parents: frozenset[int]
    children: frozenset[int]
    spouses: frozenset[int]
    tests_performed: int


class PartitionCapError(RuntimeError):
    """Raised when a node's parents-and-children set exceeds the partition cap."""

    def __init__(self, node: str, degree: int, cap: int) -> None:
        super().__init__(
            f"node {node!r} has {degree} parents/children, above the partition cap {cap}"
        )
        self.node = node
        self.degree = degree
        self.cap = cap


def _half_pc(
    table: CategoricalTable,
    target: int,
    test: IndependenceTest,
    max_cond: int,
) -> tuple[list[int], dict[int, frozenset[int]]]:
    """One-sided candidate set, grown and shrunk in one pass (HITON-PC/MMPC).

    An association screen (one batch at z = ()) keeps the variables that are
    marginally dependent on ``target`` and ranks them by strength, strongest
    first, ties by name. G²'s strength ``1 - p`` cannot tell p-values below
    about 1.1e-16 apart (it is exactly 1.0 for every p <= 2^-54), so G²
    ranks those candidates by name (ROADMAP item 1). In that order each
    newcomer is tested against the subsets of size 1 to ``max_cond`` of the
    current set, smallest first; the first that separates it becomes its
    sepset. Otherwise it joins, and each earlier member is re-tested only
    against the subsets that hold the newcomer, since every other subset was
    tried before; a separated member leaves with its sepset. So no subset of
    up to ``max_cond`` of the final set separates a member. A query's z
    lists members in joining order.
    """
    sepsets: dict[int, frozenset[int]] = {}
    ranked = []
    others = [v for v in range(table.m) if v != target]
    for v, verdict in zip(others, test.many(target, others, ())):
        if verdict.independent:
            sepsets[v] = frozenset()
        else:
            ranked.append((-test.strength(verdict), table.names[v], v))
    ranked.sort()

    def separator(v: int, pool: list[int], newcomer: tuple[int, ...]) -> frozenset[int] | None:
        """First z separating v: a subset of ``pool``, then ``newcomer``; 1..max_cond long."""
        for size in range(0 if newcomer else 1, max_cond - len(newcomer) + 1):
            for zs in combinations(pool, size):
                if test(target, v, zs + newcomer).independent:
                    return frozenset(zs + newcomer)
        return None

    cpc: list[int] = []
    for _, _, v in ranked:
        sep = separator(v, cpc, ())
        if sep is not None:
            sepsets[v] = sep
            continue
        for u in list(cpc):
            sep = separator(u, [w for w in cpc if w != u], (v,))
            if sep is not None:
                cpc.remove(u)
                sepsets[u] = sep
        cpc.append(v)
    return cpc, sepsets


def _check_search(table: CategoricalTable, test: IndependenceTest, max_cond: int) -> None:
    """``ValueError`` unless ``max_cond >= 0`` and ``test`` answers from ``table`` itself."""
    if max_cond < 0:
        raise ValueError(f"max_cond must be >= 0, got {max_cond}")
    if test.table is not table:
        raise ValueError("the test is bound to another table than the one searched")


def _search(search: Callable, table: CategoricalTable, target: int, test: IndependenceTest,
            max_cond: int) -> tuple[list[int], dict[int, frozenset[int]]]:
    """``search(table, target, test, max_cond)``, memoised on ``test.pc_searches``.

    The record under ``(search, target, max_cond)`` is ``(result, asked)``,
    ``asked`` being the logical count the search added. A replay counts as
    the rerun it stands for: a hit adds ``asked`` to ``test.count`` and
    evaluates nothing, so every count is what the search would count with no
    search memo, and the memo changes only time and ``test.evaluated``.
    Callers must not mutate what it returns.
    """
    key = (search, target, max_cond)
    record = test.pc_searches.get(key)
    if record is None:
        start = test.count
        result = search(table, target, test, max_cond)
        record = test.pc_searches[key] = result, test.count - start
    else:
        test.count += record[1]
    return record[0]


def _symmetric_pc(search: Callable, table: CategoricalTable, target: int, test: IndependenceTest,
                  max_cond: int) -> tuple[frozenset[int], dict[int, frozenset[int]]]:
    """The candidates of ``search`` for ``target`` that the AND rule keeps.

    A candidate stays only if the target is a candidate of its own search. A
    dropped one takes its sepset from that search. Refuses what
    :func:`_check_search` refuses before any query.
    """
    _check_search(table, test, max_cond)
    cand, sepsets = _search(search, table, target, test, max_cond)
    sepsets = dict(sepsets)
    pc = []
    for v in sorted(cand, key=lambda i: table.names[i]):
        back, back_seps = _search(search, table, v, test, max_cond)
        if target in back:
            pc.append(v)
        else:
            sepsets[v] = back_seps.get(target, frozenset())
    return frozenset(pc), sepsets


def find_pc(
    table: CategoricalTable,
    target: int,
    test: IndependenceTest,
    max_cond: int = 3,
) -> tuple[frozenset[int], dict[int, frozenset[int]]]:
    """Parents and children of ``target`` with AND symmetry correction.

    The candidates come from the one-sided search of ``_half_pc``: the
    variables marginally dependent on the target join strongest first, a
    newcomer is tested against the subsets of up to ``max_cond`` of the
    current set, and after it joins the earlier members are re-tested only
    against the subsets that hold it. No subset of up to ``max_cond`` of the
    other candidates separates a candidate from the target.

    A candidate stays only if the target is a candidate of its own search,
    so ``target in find_pc(c)`` for every member ``c`` at the same test and
    ``max_cond``. Returns the adjacent variables and, for every screened
    non-member, a conditioning set that separated it from the target. The
    one-sided searches are memoised on ``test`` (see :func:`_search`): a
    repeat evaluates nothing.
    """
    return _symmetric_pc(_half_pc, table, target, test, max_cond)


def _check_members(table: CategoricalTable, target: int, members, what: str) -> None:
    """Refuse a target outside [0, m), and members that hold it or an index outside [0, m)."""
    if not 0 <= target < table.m:
        raise ValueError(f"target index {target} outside [0, {table.m})")
    for v in members:
        if not 0 <= v < table.m:
            raise ValueError(f"{what} index {v} outside [0, {table.m})")
        if v == target:
            raise ValueError(f"{what} holds the target {table.names[target]!r}")


def score_partition(
    table: CategoricalTable,
    target: int,
    partition: Partition,
    regrets: RegretTable | None = None,
) -> float:
    """Total code length of the target's neighbourhood under one role split.

    Cost of the target given its joint parent configuration, plus the
    unconditioned cost of each parent, plus each child given the target.
    Summation order is canonical, so the value is independent of how the
    member sets are listed.

    Raises ``ValueError`` when the roles overlap, when either holds the
    target, or when the target or a member is an index outside [0, m).
    """
    if partition.parents & partition.children:
        raise ValueError("parents and children overlap")
    _check_members(table, target, partition.parents | partition.children, "partition")
    return _Terms(table, regrets).score(target, partition.parents, partition.children)


class _Terms:
    """The code-length terms of neighbourhoods on one table, each computed once.

    A term is :func:`climb.nml.conditional_sc` of a column given the joint
    values of some columns, keyed by (column, conditioning tuple), ``()``
    for the column alone. Consecutive terms with one conditioning tuple share
    one :func:`climb.table.group_labels` grouping. :meth:`score` sums one
    neighbourhood's terms in the order :func:`score_partition` defines: the
    target given its parents, each parent alone, each child given the
    target, parents and children in index order. :func:`score_partition`
    prices one split through a fresh instance;
    :func:`climb.graph.climb_orient` keeps one for its whole call, so its
    totals are the same floats.
    """

    def __init__(self, table: CategoricalTable, regrets: RegretTable | None) -> None:
        self._table = table
        self._regrets = regrets
        self._memo: dict[tuple[int, tuple[int, ...]], float] = {}
        self._grouped: tuple[tuple[int, ...], tuple[np.ndarray, np.ndarray]] | None = None

    def grouping(self, given: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """``group_labels`` of ``given``, kept until another tuple is asked for."""
        if self._grouped is None or self._grouped[0] != given:
            self._grouped = given, group_labels(self._table, list(given))
        return self._grouped[1]

    def term(self, col: int, given: tuple[int, ...] = ()) -> float:
        """``col``'s code length given the joint values of ``given``."""
        key = (col, given)
        term = self._memo.get(key)
        if term is None:
            x, card = self._table.columns[col], self._table.cards[col]
            term = self._memo[key] = conditional_sc(x, card, self.grouping(given)[0], self._regrets)
        return term

    def score(self, target: int, parents: Collection[int], children: Collection[int]) -> float:
        """The total code length of ``target`` with these (disjoint, valid) parents and children."""
        pa = sorted(parents)
        total = self.term(target, tuple(pa))
        for p in pa:
            total += self.term(p)
        for c in sorted(children):
            total += self.term(c, (target,))
        return total


def _refined_terms(
    table: CategoricalTable,
    target: int,
    members: list[int],
    regrets: RegretTable | None,
) -> Callable[[np.ndarray, np.ndarray, int, bool], tuple[float, np.ndarray | None, np.ndarray]]:
    """The target-term kernel of one partition search over ``members``.

    Returns ``refined_term(labels, sizes, col, relabel) -> (term, labels,
    sizes)``. ``labels`` number the rows over a domain of
    ``sizes.shape[0]`` values, ``sizes[j]`` rows holding label j; a zero
    size is a label no row holds. The result is for the grouping refined by
    member ``col``; ``term`` is :func:`climb.nml._code_bits` of the target
    over it, as in ``conditional_sc``, so the two agree bit for bit.
    :func:`climb.table._compact` of the returned labels and sizes is
    :func:`climb.table.group_labels` of the refined columns.

    Built once per search: each member's low digits ``x_c · k_t + x_t`` and
    the c·log2(c) table over 0..n (``climb.nml._count_bits_table``). Up to
    the :func:`climb.table._countable` cut on the domain · k_c · k_t cells,
    a subset makes two row passes for its cell code ``labels · (k_c · k_t)
    + low_c`` and one bincount over it. Its row sums, as rows of k_t cells,
    are the sizes of the mixed-radix labels ``code // k_t`` (zero for
    unrealized pairs), and its positive cells are ``conditional_sc``'s
    cells in the same order. Those labels, made only when ``relabel`` asks
    (``None`` and the positive sizes otherwise), stay uncompacted while
    every child refinement stays within the cut (domain · largest member
    cardinality · k_t), and are :func:`climb.table._compact`-ed past it, so
    a refinement above the cut always starts from realized groups only.
    Above the cut, :func:`climb.table.refine_labels` refines first and the
    target is counted against its labels.
    """
    x_t, k_t = table.columns[target], table.cards[target]
    low = {c: table.columns[c] * k_t + x_t for c in members}
    widest = max((table.cards[c] for c in members), default=1) * k_t
    xlog = _count_bits_table(table.n)

    def refined_term(labels, sizes, col, relabel):
        k_c = table.cards[col]
        rows = sizes.shape[0] * k_c
        if _countable(rows * k_t, table.n):
            code = labels * (k_c * k_t)
            code += low[col]
            cells = np.bincount(code, minlength=rows * k_t)
            counts = _row_sums(cells, k_t)
            realized = counts.compress(counts > 0)
            term = _code_bits(xlog, cells, realized, k_t, regrets)
            if not relabel:
                return term, None, realized
            if _countable(rows * widest, table.n):
                return term, code // k_t, counts
            return term, *_compact(code // k_t, counts)
        labels, sizes = refine_labels(table, labels, sizes, col)
        return conditional_sc(x_t, k_t, labels, regrets), labels, sizes

    return refined_term


def find_best_partition(
    table: CategoricalTable,
    target: int,
    pc_set: frozenset[int] | set[int],
    cap: int = 20,
    regrets: RegretTable | None = None,
) -> Partition:
    """Exhaustive minimum-cost split of ``pc_set`` into parents and children.

    Every subset of the members is tried as the parent set, each exactly
    once, depth first in member (name) order. Only the target term depends
    on the subset; each member's terms as a parent and as a child, and the
    target's alone, come from one ``_Terms``. A subset's term comes from its
    parent subset's grouping and one more member column: one bincount over
    (label, member value, target value) yields the refined group sizes and
    the target's cells together (see ``_refined_terms``), so each subset
    costs two row passes for its cell code and one bincount, plus a division
    for the mixed-radix labels where the walk goes deeper. Those labels are
    compacted to realized groups only once a child's count would pass the
    dense-counting cut. Every term equals :func:`climb.nml.conditional_sc`
    over the subset's grouping bit for bit. Ties prefer fewer parents, then
    the lexicographically smallest parent name set, so the result does not
    depend on column order; a subset builds its name tuple only when its
    score can tie or beat the best so far.

    The search is exhaustive over the 2^|PC| subsets, and ``cap`` is its
    only bound. Exact branch-and-bound lost in every variant measured: a
    sound floor per subtree still visited 70 % of the subsets, and took
    4.0 s where the plain walk took 3.3 s. ``scripts/cost.py partition``
    measures the cost per subset; 2^20 times that cost, at the default
    ``cap``, is a projection, not a measurement.

    Raises ``ValueError`` for a negative ``cap``, for a ``target`` outside
    [0, m), or when ``pc_set`` holds the target or an index outside [0, m),
    and :class:`PartitionCapError`
    when ``pc_set`` has more than ``cap`` members.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    _check_members(table, target, pc_set, "pc_set")
    members = sorted(pc_set, key=lambda i: table.names[i])
    if len(members) > cap:
        raise PartitionCapError(table.names[target], len(members), cap)
    if not members:
        return Partition(frozenset(), frozenset())

    # per-member terms are partition-independent; only the target term varies
    terms = _Terms(table, regrets)
    labels, sizes = terms.grouping(())
    root = terms.term(target)
    solo_cost = {v: terms.term(v) for v in members}
    child_cost = {v: terms.term(v, (target,)) for v in members}

    refined_term = _refined_terms(table, target, members, regrets)
    best_key = None
    best: list[int] = []
    last = len(members) - 1

    def visit(pa: list[int], term: float, labels_pa, sizes_pa, nxt: int) -> None:
        nonlocal best_key, best
        pa_set = set(pa)
        score = term
        for v in members:
            score += solo_cost[v] if v in pa_set else child_cost[v]
        if best_key is None or score <= best_key[0]:  # the name tuple only for a contender
            key = (score, len(pa), tuple(table.names[v] for v in pa))
            if best_key is None or key < best_key:
                best_key, best = key, pa
        for i in range(nxt, len(members)):
            step = refined_term(labels_pa, sizes_pa, members[i], i < last)
            visit(pa + [members[i]], *step, i + 1)

    visit([], root, labels, sizes, 0)
    return Partition(frozenset(best), frozenset(m for m in members if m not in best))


def climb(
    table: CategoricalTable,
    target: int,
    test: IndependenceTest,
    max_cond: int = 3,
    cap: int = 20,
    regrets: RegretTable | None = None,
) -> BlanketResult:
    """Causal Markov blanket of ``target``: parents, children and spouses.

    Finds the parents-and-children set, splits it by minimum code length,
    then searches for spouses only through the children: a candidate spouse
    is kept when it stays dependent on the target once the shared child
    joins its separating set. The paper's fast symmetry correction (drop a
    child whose own set lacks the target) never fires here, because
    :func:`find_pc` already keeps only symmetric members.

    ``tests_performed`` counts the queries this call asks, a replayed search
    as the rerun it stands for (see :func:`_search`), so it does not depend
    on what ran earlier on the same test.
    A negative ``cap`` is refused with ``ValueError`` before any test runs.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    start = test.count
    pc, sepsets = find_pc(table, target, test, max_cond)
    part = find_best_partition(table, target, pc, cap, regrets)
    result = BlanketResult(
        parents=part.parents,
        children=part.children,
        spouses=_spouses(table, target, test, pc, sepsets, part.children,
                         lambda c: find_pc(table, c, test, max_cond)[0]),
        tests_performed=test.count - start,
    )
    _check_blanket(result, target)
    return result


def _spouses(table: CategoricalTable, target: int, test: IndependenceTest, pc: Collection[int],
             sepsets: dict[int, frozenset[int]], via: Collection[int],
             pc_of: Callable[[int], Collection[int]]) -> frozenset[int]:
    """Spouses of ``target`` found through the members ``via`` of its set ``pc``.

    For each c of ``via`` and each y of ``pc_of(c)``, both in name order, a y
    that is not the target, a member of ``pc`` or a spouse found before is a
    spouse when it stays dependent on the target given its sepset plus c.
    CLIMB searches through the children, PCMB through the whole set.
    """
    names = table.names
    found: set[int] = set()
    for c in sorted(via, key=lambda i: names[i]):
        for y in sorted(pc_of(c), key=lambda i: names[i]):
            if y == target or y in pc or y in found:
                continue
            if not test(target, y, tuple(sorted(sepsets.get(y, frozenset()) | {c}))).independent:
                found.add(y)
    return frozenset(found)


def _check_blanket(result: BlanketResult, target: int) -> None:
    sets = (result.parents, result.children, result.spouses)
    assert not any(target in s for s in sets), "blanket contains the target"
    assert not (result.parents & result.children), "parents and children overlap"
    assert not (result.parents & result.spouses), "parents and spouses overlap"
    assert not (result.children & result.spouses), "children and spouses overlap"


def _get_pcd(
    table: CategoricalTable,
    target: int,
    test: IndependenceTest,
    max_cond: int,
) -> tuple[list[int], dict[int, frozenset[int]]]:
    """Candidate parents/children with per-round re-ranking (reference search).

    Each round a candidate's weakest verdict over the subsets of the current
    set decides: an independent one drops it, and the most dependent of the
    rest joins, ties by name. G²'s strength ``1 - p`` is exactly 1.0 for
    every p <= 2^-54 (and 1 - 2^-53 up to about 1.1e-16), so G² picks among
    such candidates by name (ROADMAP item 1).
    """
    names = table.names
    pcd: list[int] = []
    can = sorted((v for v in range(table.m) if v != target), key=lambda i: names[i])
    sepsets: dict[int, frozenset[int]] = {}

    def weakest(vs: list[int], pool: list[int]) -> list[tuple[CiVerdict, frozenset[int]]]:
        """Per v, the least dependent verdict over the subsets of ``pool``."""
        best: list[tuple[tuple, CiVerdict, frozenset[int]] | None] = [None] * len(vs)
        for size in range(0, min(max_cond, len(pool)) + 1):
            for zs in combinations(pool, size):
                zs_names = [names[i] for i in zs]
                for i, verdict in enumerate(test.many(target, vs, zs)):
                    key = (test.strength(verdict), zs_names)
                    if best[i] is None or key < best[i][0]:
                        best[i] = (key, verdict, frozenset(zs))
        return [(verdict, sep) for _, verdict, sep in best]

    while can:
        keep = []
        strengths = {}
        for v, (verdict, sep) in zip(can, weakest(can, pcd)):
            if verdict.independent:
                sepsets[v] = sep
            else:
                keep.append(v)
                strengths[v] = test.strength(verdict)
        can = keep
        if not can:
            break
        best = min(can, key=lambda v: (-strengths[v], names[v]))
        can.remove(best)
        pcd.append(best)
        drop = []
        for v in pcd:
            pool = [u for u in pcd if u != v]
            ((verdict, sep),) = weakest([v], pool)
            if verdict.independent:
                drop.append(v)
                sepsets[v] = sep
        for v in drop:
            pcd.remove(v)
    return pcd, sepsets


def pcmb(
    table: CategoricalTable,
    target: int,
    test: IndependenceTest,
    max_cond: int = 3,
) -> tuple[frozenset[int], int]:
    """Reference undirected Markov blanket; returns the set and its test count.

    The count is this call's, a replayed search counted as the rerun it
    stands for (see :func:`_search`).
    """
    start = test.count
    pc, sepsets = _symmetric_pc(_get_pcd, table, target, test, max_cond)
    mb = pc | _spouses(table, target, test, pc, sepsets, pc,
                       lambda y: _symmetric_pc(_get_pcd, table, y, test, max_cond)[0])
    return mb, test.count - start
