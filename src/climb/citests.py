"""Association and conditional-independence tests for discrete data.

Three tests sit behind one verdict type: the stochastic-complexity test
(``sci``), which needs no tuning parameter and declares independence exactly
when its statistic is <= 0; the classical G^2 likelihood-ratio test with a
significance level; and plug-in conditional mutual information against a
fixed cutoff, a verdict only ``IndependenceTest(kind="cmi")`` gives (its
``statistic`` is the bare value). Each statistic is read off one
(z, x, y) contingency array per query. Every verdict takes one path,
:meth:`IndependenceTest.many`, which asks one (x, z) against many y: it
checks the batch once, keys every y in the test's memo, answers the distinct
misses in one pass (one (B, g, kx, K) count array, one elementwise pass and
one regret lookup per cardinality) and reads every verdict off the memo.
``IndependenceTest.__call__`` is a batch of one, and so are the module
functions ``sci`` and ``g2_test``, each on a fresh test. Verdicts are
memoised per test object.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .nml import RegretTable, _count_bits_table, _row_sums, shared_regrets
from .nml import conditional_sc  # noqa: F401  (still importable from this module)
from .table import CategoricalTable, _countable, _dense_code, group_labels

__all__ = [
    "CiQuery",
    "CiVerdict",
    "sci",
    "g2_test",
    "IndependenceTest",
    "make_test",
]


@dataclass(frozen=True)
class CiQuery:
    """One conditional-independence question: x independent of y given z?"""

    x: int
    y: int
    z: tuple[int, ...]
    table: CategoricalTable

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", tuple(self.z))
        _check(self.table.m, self.x, self.y, self.z)


def _check(m: int, x: int, y: int, z: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless (x, y, z) is a valid query on ``m`` columns."""
    for i in (x, y, *z):
        if not 0 <= i < m:
            raise ValueError(f"variable index {i} outside table width {m}")
    if x == y:
        raise ValueError("x and y must differ")
    if x in z or y in z:
        raise ValueError("x and y may not appear in the conditioning set")
    if len(set(z)) != len(z):
        raise ValueError("the conditioning set may not repeat a variable")


@dataclass(frozen=True)
class CiVerdict:
    statistic: float
    independent: bool
    p_value: float | None = None


# words of scratch one AND + popcount pass may take (1 MiB of uint64)
_SCRATCH_WORDS = 1 << 17


def _bincounts(table: CategoricalTable, code: np.ndarray, cells: int, ys: Sequence[int],
               width: int) -> np.ndarray:
    """(B, cells · width) counts of ``code`` times ``width`` plus each y's column, one bincount per y.

    ``code`` is scaled in place. A single bincount over all the ys needs a
    (B, n) code array, whose three passes cost more.
    """
    code *= width
    counts = np.empty((len(ys), cells * width), dtype=np.int64)
    for b, y in enumerate(ys):
        counts[b] = np.bincount(code + table.columns[y], minlength=cells * width)
    return counts


def _bit_counts(table: CategoricalTable, cols: tuple[int, ...], ys: Sequence[int], width: int,
                scratch: int = _SCRATCH_WORDS) -> np.ndarray:
    """The counts :func:`_bincounts` gives for the mixed-radix code of ``cols``, by AND + popcount.

    The C cells of ``cols`` (first column most significant) get one bitset
    each, the AND of their values' row bitsets (the table's ``_row_bits``);
    a y's count in cell c and value v is then the popcount of cell c's
    bitset AND value v's, summed over the words. That is C·ky·w words per y
    against the n rows its bincount reads. The ys go in chunks and the words
    in slices of at most 1023, so that one pass takes at most ``scratch``
    words whenever one y's C·ky cells fit in it.
    """
    bits, cards = table._row_bits, table.cards
    cells = bits[cols[0]]
    words = cells.shape[1]
    for c in cols[1:]:
        cells = (cells[:, np.newaxis] & bits[c]).reshape(cells.shape[0] * cards[c], words)
    kys = [cards[y] for y in ys]
    # counted as (B, width, C), where y b's value v is row b · width + v
    rows_of = [b * width + v for b, ky in enumerate(kys) for v in range(ky)]
    counts = np.zeros((len(ys) * width, cells.shape[0]), dtype=np.int64)
    per_word = cells.shape[0] * max(words, 1)
    start = first = 0
    while start < len(ys):
        stop, rows = start + 1, kys[start]
        while stop < len(ys) and per_word * (rows + kys[stop]) <= scratch:
            rows += kys[stop]
            stop += 1
        # a lone y is read in place; a chunk's copy is within the scratch
        ybits = bits[ys[start]] if stop == start + 1 else np.concatenate([bits[y] for y in ys[start:stop]])
        # a slice's popcounts sum to at most 64 · 1023 < 2^16, exact in uint16
        step = min(1023, max(1, scratch // (cells.shape[0] * rows)))
        at = rows_of[first:first + rows]
        for lo in range(0, words, step):
            both = np.bitwise_count(ybits[:, np.newaxis, lo:lo + step] & cells[:, lo:lo + step])
            part = np.add.reduce(both, axis=2, dtype=np.uint16)
            if lo:
                counts[at] += part
            else:  # a plain store: most batches take one slice
                counts[at] = part
        start, first = stop, first + rows
    return np.ascontiguousarray(counts.reshape(len(ys), width, -1).transpose(0, 2, 1))


class _Given:
    """One (table, x, z) asked against a batch of ys, answered in one pass.

    The ys' counts form one (B, g, kx, K) array for B ys, K the widest
    y-cardinality: row b counts the rows by the (z..., x) code times K plus
    y_b's column. A narrower y pads its cells with zeros. z-groups follow the
    lexicographic order of their values, as in
    :func:`climb.table.group_labels`, so every statistic sums its terms in
    the order a per-grouping computation would. When the (z..., x, K) domain
    is within the :func:`climb.table._countable` cut, the code is mixed-radix
    and unrealized z-values get empty rows; above it the rows are the
    realized z-groups only. Both give the same positive cells in the same
    order, so the widest y alone picks the code for the whole batch.
    :func:`_givens` splits the ys so that the padding stays bounded.

    The counts are one bincount per y (:func:`_bincounts`), except for a
    batch of B >= 2 ys under the cut with C · Σky <= 64 · B, C = Π k_z · kx
    the number of (z..., x) cells: that batch is counted by AND + popcount
    of the table's row bitsets (:func:`_bit_counts`), which pays below
    C · ky = 64 because one word holds 64 rows. Both give the same integers
    in the same layout.

    The z-group sizes and (z, x) cells are read off the first y's counts.
    SCI and CMI gather c·log₂c for every cell from
    :func:`climb.nml._count_bits_table` in one pass and sum each y's
    positive cells on their own, in array order. A code length of x or y
    given z, (z, y) or (z, x) is then the formula of
    :func:`climb.nml._code_bits`, which :func:`climb.nml.conditional_sc`
    ends in: the groups' sum minus the cells' sum plus the regrets over the
    group sizes, in that order. The batch keeps its own copy of it, so that
    the regrets come from one :meth:`climb.nml.RegretTable.log_regret_many`
    per cardinality for the whole batch. G² computes its terms for the whole
    batch over the realized strata and sums each y's own ky-wide slice after
    a C-order copy, which is the array a single query sums.

    ``x``, ``z`` and every y must form valid queries, and ``ys`` must not be
    empty.
    """

    def __init__(self, table: CategoricalTable, x: int, z: tuple[int, ...], ys: Sequence[int],
                 regrets: RegretTable | None = None) -> None:
        self.table = table
        cards = table.cards
        self.kx = kx = cards[x]
        self.kys = [cards[y] for y in ys]
        radix_z = 1
        for c in z:
            radix_z *= cards[c]
        self._regrets = regrets
        width = max(self.kys)
        if not _countable(radix_z * kx * width, table.n):
            labels, sizes = group_labels(table, list(z))
            groups = sizes.shape[0]
            counts = _bincounts(table, labels * kx + table.columns[x], groups * kx, ys, width)
        else:
            groups = radix_z
            if len(ys) > 1 and radix_z * kx * sum(self.kys) <= 64 * len(ys):
                counts = _bit_counts(table, (*z, x), ys, width)
            else:
                counts = _bincounts(table, _dense_code(table, (*z, x))[0], radix_z * kx, ys, width)
        self.counts = counts.reshape(len(ys), groups, kx, width)
        self.zx = _row_sums(self.counts[0].ravel(), width)
        self.z_totals = _row_sums(self.zx, kx)
        self.z_sizes = self.z_totals[self.z_totals > 0]

    def _data_bits(self, both: bool) -> None:
        """The c·log₂c sums: over the z-groups and the (z, x) cells, and per y
        over its (z, y), (z, y, x) and, if ``both``, (z, x, y) cells.

        Also keeps the batch's positive (z, x) and (z, y) counts in order, and
        where each y's (z, y) counts end, for the regrets.
        """
        counts = self.counts
        xlog = _count_bits_table(self.table.n)
        self.zx_cells = self.zx[self.zx > 0]
        self.bits_z = float(np.add.reduce(xlog[self.z_sizes]))
        self.bits_zx = float(np.add.reduce(xlog[self.zx_cells]))
        zy = _x_sums(counts)[:, :, 0]
        zy_pos = zy > 0
        self.zy_cells = zy[zy_pos]
        self.zy_ends = _ends(zy_pos)
        self.bits_zy = _segment_sums(xlog[self.zy_cells], self.zy_ends)
        pos = counts > 0
        cells = xlog[counts]
        ends = _ends(pos)
        self.bits_zyx = _segment_sums(cells.transpose(0, 1, 3, 2)[pos.transpose(0, 1, 3, 2)], ends)
        self.bits_zxy = _segment_sums(cells[pos], ends) if both else None

    def sci(self) -> list[CiVerdict]:
        kx, ycards = self.kx, set(self.kys)
        self._data_bits(True)
        bits_z, bits_zx = self.bits_z, self.bits_zx
        regrets = self._regrets or shared_regrets()
        groups = self.z_sizes.shape[0]
        # per cardinality: the regret sums over the z-groups and the (z, x) cells
        y_given: dict[int, tuple[float, float]] = {}
        for card in (ycards | {kx}) - {1}:
            # one lookup over the z-group sizes, then x's (z, y) cells, then a y's (z, x) cells
            zy = self.zy_cells if card == kx else self.zy_cells[:0]
            zx = self.zx_cells if card in ycards else self.zx_cells[:0]
            values = regrets.log_regret_many(card, np.concatenate((self.z_sizes, zy, zx)))
            over_z = float(np.add.reduce(values[:groups]))
            y_given[card] = over_z, float(np.add.reduce(values[groups + zy.shape[0]:]))
            if card == kx:
                # x's code length given z, and per y the regrets of its length given (z, y)
                x_given_z = bits_z - bits_zx + over_z
                x_regrets_zy = _segment_sums(values[groups:groups + zy.shape[0]], self.zy_ends)
        out = []
        for b, ky in enumerate(self.kys):
            bits_zy = self.bits_zy[b]
            # x given z minus given (z, y), and y given z minus given (z, x)
            score_x = score_y = 0.0
            if kx > 1:
                score_x = x_given_z - (bits_zy - self.bits_zyx[b] + x_regrets_zy[b])
            if ky > 1:
                over_z, over_zx = y_given[ky]
                score_y = bits_z - bits_zy + over_z - (bits_zx - self.bits_zxy[b] + over_zx)
            statistic = max(score_x, score_y)
            out.append(CiVerdict(statistic=statistic, independent=statistic <= 0.0))
        return out

    def cmi(self) -> list[float]:
        """Per y, plug-in I(x; y | z) in bits per sample, with noise below 1e-12 read as 0."""
        n = self.table.n
        if n == 0:
            return [0.0] * len(self.kys)
        self._data_bits(False)
        out = []
        for a, b in zip(self.bits_zy, self.bits_zyx):
            value = ((self.bits_z - self.bits_zx) - (a - b)) / n
            # the entropy subtraction leaves noise of a few ulp on exactly
            # factorized counts; genuine sample dependence sits far above this
            out.append(value if value > 1e-12 else 0.0)
        return out

    def g2(self) -> list[float]:
        """Per y, G² over the realized strata (the caller checks the degrees of freedom)."""
        counts, zx = self.counts, self.zx.reshape(-1, self.kx)
        if counts.shape[1] != self.z_sizes.shape[0]:
            # only the mixed-radix code has unrealized strata; empty ones would
            # add zeros that regroup the sum
            realized = self.z_totals > 0
            counts, zx = counts[:, realized], zx[realized]
        # integer margins: row * column is exact, as it is in float64 below 2^53
        cols = _x_sums(counts)
        expected = zx[:, :, np.newaxis] * cols / self.z_sizes.reshape(-1, 1, 1)
        # count / expected on the positive cells, 1 (a zero term) on the rest;
        # a positive cell has a positive row, column and stratum
        terms = np.divide(counts, expected, out=np.ones_like(expected), where=counts > 0)
        np.log(terms, out=terms)
        terms *= counts
        return [max(0.0, 2.0 * float(np.add.reduce(terms[b, :, :, :ky].ravel())))
                for b, ky in enumerate(self.kys)]


def _givens(table: CategoricalTable, x: int, z: tuple[int, ...], ys: Sequence[int],
            regrets: RegretTable | None = None) -> list[tuple[list[int], _Given]]:
    """The batches that answer ``ys``, each as (places in ``ys``, its :class:`_Given`).

    The ys whose (z..., x, y) domain is within the :func:`climb.table._countable`
    cut share one batch, so each y's padded array has at most 4n + 64 cells.
    Above the cut the arrays count realized z-groups, which n does not bound,
    so each y-cardinality there is a batch of its own and no y is padded.
    """
    if len(ys) == 1:
        # a lone y is never padded. With this and the single-row sum of
        # _segment_sums, single queries took 0.95-1.09 of the parent's time
        # against 1.00-1.21 without (SCI, G² and CMI at |z| = 0-2, n = 5000,
        # median of 15 alternations in one process)
        return [([0], _Given(table, x, z, ys, regrets))]
    radix = table.cards[x]
    for c in z:
        radix *= table.cards[c]
    split: dict[int, list[int]] = {}
    for i, y in enumerate(ys):
        ky = table.cards[y]
        split.setdefault(0 if _countable(radix * ky, table.n) else ky, []).append(i)
    return [(places, _Given(table, x, z, [ys[i] for i in places], regrets)) for places in split.values()]


def _per_y(givens: list[tuple[list[int], _Given]], answer) -> list:
    """``answer(given)`` of every batch, put back in the order of the ys."""
    if len(givens) == 1:
        return answer(givens[0][1])
    out: list = [None] * sum(len(places) for places, _ in givens)
    for places, given in givens:
        for i, value in zip(places, answer(given)):
            out[i] = value
    return out


def _x_sums(counts: np.ndarray) -> np.ndarray:
    """A (B, g, kx, K) count array summed over x, as (B, g, 1, K).

    An integer product with a row of ones, so exact. ``sum(axis=2)`` over the
    short middle axis took 317 µs on a (36, 64, 4, 4) batch against 59 µs for
    this and 50 µs for ``einsum``, whose parsing makes it the slowest of the
    three at (1, 1, 3, 3) (timeit, 2-core VM).
    """
    return np.matmul(np.ones((1, counts.shape[2]), dtype=np.int64), counts)


def _ends(mask: np.ndarray) -> list[int | None]:
    """Where each batch row's true cells end, in the order ``mask[mask]`` lists them."""
    if mask.shape[0] == 1:
        return [None]
    return np.count_nonzero(mask.reshape(mask.shape[0], -1), axis=1).cumsum().tolist()


def _segment_sums(values: np.ndarray, ends: list[int | None]) -> list[float]:
    """Sum of each batch row's stretch of ``values``, taken on its own.

    So each is numpy's pairwise sum of that row's array, as a single query
    would take it.
    """
    if len(ends) == 1:  # the same sum, without the slicing (see _givens)
        return [float(np.add.reduce(values))]
    return [float(np.add.reduce(values[start:end])) for start, end in zip([0, *ends], ends)]


def _g2_verdicts(table: CategoricalTable, x: int, z: tuple[int, ...], ys: Sequence[int],
                 alpha: float, min_samples_per_dof: float) -> list[CiVerdict]:
    """G² verdicts of (x, y, z) per y; the ys with too few samples per degree of freedom go untested."""
    radix = table.cards[x] - 1
    for c in z:
        radix *= table.cards[c]
    dofs = [radix * (table.cards[y] - 1) for y in ys]
    tested = [i for i, dof in enumerate(dofs) if dof > 0 and not table.n < min_samples_per_dof * dof]
    out: list[CiVerdict | None] = [None] * len(ys)
    if tested:
        # scipy.special costs about 0.25 s to import, so only G² users pay it
        from scipy.special import chdtrc

        stats = _per_y(_givens(table, x, z, [ys[i] for i in tested]), _Given.g2)
        ps = chdtrc([dofs[i] for i in tested], stats).tolist()
        for i, stat, p in zip(tested, stats, ps):
            out[i] = CiVerdict(statistic=stat, independent=p > alpha, p_value=p)
    return [v or CiVerdict(statistic=0.0, independent=True, p_value=1.0) for v in out]


def sci(q: CiQuery) -> CiVerdict:
    """Symmetric stochastic-complexity independence verdict.

    The statistic is the larger of the two directional scores; independence
    is declared exactly when it is <= 0. Both scores come from one
    contingency array. A batch of one through a fresh
    :class:`IndependenceTest`.
    """
    return IndependenceTest(q.table)(q.x, q.y, q.z)


def g2_test(q: CiQuery, alpha: float = 0.01, min_samples_per_dof: float = 10.0) -> CiVerdict:
    """G^2 likelihood-ratio test within the realized strata of z.

    Degrees of freedom use the declared cardinalities with no zero-cell
    correction. When fewer than ``min_samples_per_dof`` samples per degree of
    freedom are available the test is considered unreliable and independence
    is returned without testing (set the factor to 0 to disable). An
    ``alpha`` outside (0, 1) is refused with ``ValueError``. A batch of one
    through a fresh :class:`IndependenceTest`.
    """
    return IndependenceTest(q.table, "g2", alpha, min_samples_per_dof=min_samples_per_dof)(q.x, q.y, q.z)


class IndependenceTest:
    """A configured test bound to one table, counting every invocation.

    ``count`` is the logical number of calls. Verdicts are memoised per test
    object, so ``evaluated`` counts only the calls that computed a statistic.
    Memo keys are exact: ``(x, y, z)`` as given, except that SCI, whose
    statistic is the larger of two identically computed directions, keys on
    ``(min(x, y), max(x, y), z)``. z is never reordered, because its order
    sets the order in which a statistic's terms are summed. The configuration
    is read-only, so a memoised verdict never outlives it.

    ``pc_searches`` memoises :mod:`climb.blanket`'s candidate searches, CLIMB's
    and PCMB's alike, as ``(result, asked)`` under ``(search, target,
    max_cond)``. A replay counts as the rerun it stands for: it adds
    ``asked`` to ``count`` and nothing to ``evaluated``. A search is a
    function of the verdicts it reads, so it shares their scope: one table,
    one kind, one configuration.

    The ``strength`` of a verdict orders dependence for search heuristics:
    larger means more dependent, whatever the underlying test reports.
    """

    def __init__(
        self,
        table: CategoricalTable,
        kind: str = "sci",
        alpha: float = 0.01,
        cutoff: float = 0.0,
        min_samples_per_dof: float = 10.0,
        regrets: RegretTable | None = None,
    ) -> None:
        if kind not in ("sci", "g2", "cmi"):
            raise ValueError(f"unknown test kind {kind!r}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if not cutoff >= 0.0:
            raise ValueError(f"cutoff must be >= 0, got {cutoff}")
        self._table = table
        self._kind = kind
        self._alpha = alpha
        self._cutoff = cutoff
        self._min_samples_per_dof = min_samples_per_dof
        self._regrets = regrets
        self._memo: dict[tuple, CiVerdict] = {}
        self.pc_searches: dict[tuple, tuple] = {}
        self.count = 0
        self.evaluated = 0

    table = property(attrgetter("_table"))
    kind = property(attrgetter("_kind"))
    alpha = property(attrgetter("_alpha"))
    cutoff = property(attrgetter("_cutoff"))
    min_samples_per_dof = property(attrgetter("_min_samples_per_dof"))
    regrets = property(attrgetter("_regrets"))

    def __call__(self, x: int, y: int, z: tuple[int, ...] = ()) -> CiVerdict:
        return self.many(x, (y,), z)[0]

    def many(self, x: int, ys: Iterable[int], z: tuple[int, ...] = ()) -> list[CiVerdict]:
        """Verdicts of ``(x, y, z)`` for every y in ``ys``, in order.

        The same as calling the test once per y: each y adds one to
        ``count``, looks up the memo under its own key, and adds one to
        ``evaluated`` when it misses; a y repeated in the batch is a hit. The
        ys are checked once, up front. The distinct misses are answered
        together by one :class:`_Given` (one per y-cardinality above the
        counting cut, see :func:`_givens`), so what depends only on (x, z) is
        computed once and the ys share one count array, one elementwise pass
        and one regret lookup per cardinality; every verdict is then read
        off the memo. An invalid query raises ``ValueError`` after the ys
        before it were counted, and the misses among them evaluated and
        memoised; the invalid y is counted too.
        """
        z = tuple(z)
        ys = list(ys)
        m = len(self._table.columns)
        error = None
        for i, y in enumerate(ys):
            # the first y checks x and z too; later ones need only y checked
            if i == 0 or not (0 <= y < m and y != x and y not in z):
                try:
                    _check(m, x, y, z)
                except ValueError as exc:
                    error, ys = exc, ys[:i]
                    self.count += 1
                    break
        self.count += len(ys)
        sym = self._kind == "sci"
        keys = [(y, x, z) if sym and y < x else (x, y, z) for y in ys]
        memo = self._memo
        misses = {key: y for key, y in zip(keys, ys) if key not in memo}
        if misses:
            asked = list(misses.values())
            if sym:
                verdicts = _per_y(_givens(self._table, x, z, asked, self._regrets), _Given.sci)
            elif self._kind == "g2":
                verdicts = _g2_verdicts(self._table, x, z, asked, self._alpha, self._min_samples_per_dof)
            else:
                verdicts = [CiVerdict(statistic=value, independent=value <= self._cutoff)
                            for value in _per_y(_givens(self._table, x, z, asked), _Given.cmi)]
            memo.update(zip(misses, verdicts))
            self.evaluated += len(misses)
        if error is not None:
            raise error
        return [memo[key] for key in keys]

    def strength(self, verdict: CiVerdict) -> float:
        if self._kind == "g2":
            return 1.0 - (verdict.p_value if verdict.p_value is not None else 1.0)
        return verdict.statistic


make_test = IndependenceTest
