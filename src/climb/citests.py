"""Association and conditional-independence tests for discrete data.

Three tests sit behind one verdict type: the stochastic-complexity test
(``sci``), which needs no tuning parameter and declares independence exactly
when its statistic is <= 0; the classical G^2 likelihood-ratio test with a
significance level; and plug-in conditional mutual information against a
fixed cutoff, a verdict only ``IndependenceTest(kind="cmi")`` gives
(:func:`empirical_cmi` is the bare value). Each statistic is read off one (z, x, y) contingency array
per query. :meth:`IndependenceTest.many` asks one (x, z) against many y and
computes what depends only on (x, z) once; the single-query functions and
``IndependenceTest.__call__`` are batches of one. Verdicts are memoised per
test object.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np
from scipy.special import chdtrc

from .nml import RegretTable, count_bits, regret_sum
from .nml import conditional_sc  # noqa: F401  (still importable from this module)
from .table import CategoricalTable, _countable, _dense_code, group_labels

__all__ = [
    "CiQuery",
    "CiVerdict",
    "empirical_cmi",
    "i_sc",
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
        m = self.table.m
        for i in (self.x, self.y, *self.z):
            if not 0 <= i < m:
                raise ValueError(f"variable index {i} outside table width {m}")
        if self.x == self.y:
            raise ValueError("x and y must differ")
        if self.x in self.z or self.y in self.z:
            raise ValueError("x and y may not appear in the conditioning set")


@dataclass(frozen=True)
class CiVerdict:
    statistic: float
    independent: bool
    p_value: float | None = None


class _Given:
    """Everything one (table, x, z) contributes to the statistics of any y.

    A y's counts are a (z-group, x, y) array, built by one bincount of the
    (z..., x) code shifted by y. z-groups follow the lexicographic order of
    their values, as in :func:`climb.table.group_labels`, so every statistic
    sums its terms in the order a per-grouping computation would. When the
    whole (z..., x, y) domain is within the :func:`climb.table._countable`
    cut, the code is mixed-radix and unrealized z-values get empty rows;
    above it the rows are the realized z-groups only. Both give the same
    positive cells in the same order, so a batch may mix them.

    The z-group sizes and (z, x) cells come from the first y's counts and are
    kept with their ``count_bits``, G²'s stratum totals and row margins, and
    the regret sums over them per cardinality. Each y then pays for one
    bincount and the sums that involve y. A code length of x or y given z,
    (z, y) or (z, x), as :func:`climb.nml.conditional_sc` computes it, is the
    groups' sum minus the cells' sum plus the regrets over the group sizes,
    in that order.

    ``x`` and ``z`` must form a valid query with each y asked for.
    """

    def __init__(self, table: CategoricalTable, x: int, z: tuple[int, ...],
                 regrets: RegretTable | None = None) -> None:
        self.table = table
        self.x = x
        self.z = z
        self.kx = table.cards[x]
        self.radix_z = 1
        for c in z:
            self.radix_z *= table.cards[c]
        self._regrets = regrets
        self._codes: dict[bool, tuple[np.ndarray, int]] = {}
        self._shifted: dict[int, tuple[np.ndarray, int]] = {}
        self._regret_sums: dict[tuple[int, str], float] = {}
        self._realized_mask: np.ndarray | None = None
        self._g2_margins: tuple[np.ndarray, np.ndarray] | None = None
        self.z_sizes: np.ndarray | None = None  # set with the other margins by the first counts

    def admits(self, y: int) -> bool:
        """Whether (x, y, z) is a valid query, given that x and z are."""
        return 0 <= y < self.table.m and y != self.x and y not in self.z

    def _code(self, dense: bool) -> tuple[np.ndarray, int]:
        """The (z..., x) code and the number of z rows it spans."""
        code = self._codes.get(dense)
        if code is None:
            t = self.table
            if dense:
                zx, radix = _dense_code(t, (*self.z, self.x))
                code = zx, radix // self.kx
            else:
                labels, sizes = group_labels(t, list(self.z))
                code = labels * self.kx + t.columns[self.x], sizes.shape[0]
            self._codes[dense] = code
        return code

    def counts(self, y: int) -> np.ndarray:
        """Counts of (z-group, x, y) as a (g, kx, ky) array."""
        t = self.table
        ky = t.cards[y]
        shifted = self._shifted.get(ky)
        if shifted is None:
            code, groups = self._code(_countable(self.radix_z * self.kx * ky, t.n))
            shifted = self._shifted[ky] = code * ky, groups
        code, groups = shifted
        counts = np.bincount(code + t.columns[y], minlength=groups * self.kx * ky)
        counts = counts.reshape(groups, self.kx, ky)
        if self.z_sizes is None:
            self._margins(counts)
        return counts

    def _margins(self, counts: np.ndarray) -> None:
        self._zx = zx = counts.sum(axis=2)
        self.z_sizes = _positive(zx.sum(axis=1))
        self.zx_cells = _positive(zx)
        self.bits_z = count_bits(self.z_sizes)
        self.bits_zx = count_bits(self.zx_cells)

    def g2_margins(self) -> tuple[np.ndarray, np.ndarray]:
        """G²'s stratum totals and (z, x) row margins over the realized strata."""
        if self._g2_margins is None:
            totals = self.z_sizes.astype(np.float64).reshape(-1, 1, 1)
            rows = self.realized(self._zx)[:, :, np.newaxis].astype(np.float64)
            self._g2_margins = totals, rows
        return self._g2_margins

    def realized(self, rows: np.ndarray) -> np.ndarray:
        """The rows (first axis: z-groups) whose z-group occurs in the data."""
        if rows.shape[0] == self.z_sizes.shape[0]:
            return rows
        if self._realized_mask is None:
            # only the mixed-radix code has empty rows, and always the same ones
            self._realized_mask = rows.reshape(rows.shape[0], -1).sum(axis=1) > 0
        return rows[self._realized_mask]

    def regret_sum(self, card: int, over: str) -> float:
        """Regret sum of ``card`` values over the z-groups or the (z, x) cells."""
        key = (card, over)
        value = self._regret_sums.get(key)
        if value is None:
            sizes = self.z_sizes if over == "z" else self.zx_cells
            value = self._regret_sums[key] = regret_sum(card, sizes, self._regrets)
        return value

    def i_sc_x(self, counts: np.ndarray, zy: np.ndarray, bits_zy: float) -> float:
        """Code length of x given z minus given (z, y)."""
        if self.kx == 1:
            return 0.0
        given_z = self.bits_z - self.bits_zx + self.regret_sum(self.kx, "z")
        # y before x: x's counts per (z, y) group
        bits_zyx = count_bits(_positive(counts.transpose(0, 2, 1)))
        return given_z - (bits_zy - bits_zyx + regret_sum(self.kx, zy, self._regrets))

    def i_sc_y(self, counts: np.ndarray, bits_zy: float) -> float:
        """Code length of y given z minus given (z, x)."""
        ky = counts.shape[2]
        if ky == 1:
            return 0.0
        given_z = self.bits_z - bits_zy + self.regret_sum(ky, "z")
        # x before y: y's counts per (z, x) group
        bits_zxy = count_bits(_positive(counts))
        return given_z - (self.bits_zx - bits_zxy + self.regret_sum(ky, "zx"))

    def sci(self, y: int) -> CiVerdict:
        counts = self.counts(y)
        zy = _positive(counts.sum(axis=1))
        bits_zy = count_bits(zy)
        statistic = max(self.i_sc_x(counts, zy, bits_zy), self.i_sc_y(counts, bits_zy))
        return CiVerdict(statistic=statistic, independent=statistic <= 0.0)

    def i_sc(self, y: int) -> float:
        counts = self.counts(y)
        zy = _positive(counts.sum(axis=1))
        return self.i_sc_x(counts, zy, count_bits(zy))

    def cmi(self, y: int) -> float:
        n = self.table.n
        if n == 0:
            return 0.0
        counts = self.counts(y)
        bits_zy = count_bits(_positive(counts.sum(axis=1)))
        bits_zyx = count_bits(_positive(counts.transpose(0, 2, 1)))
        value = ((self.bits_z - self.bits_zx) - (bits_zy - bits_zyx)) / n
        # the entropy subtraction leaves noise of a few ulp on exactly
        # factorized counts; genuine sample dependence sits far above this
        return value if value > 1e-12 else 0.0

    def g2(self, y: int, alpha: float, min_samples_per_dof: float) -> CiVerdict:
        t = self.table
        dof = (self.kx - 1) * (t.cards[y] - 1) * self.radix_z
        if dof <= 0 or t.n < min_samples_per_dof * dof:
            return CiVerdict(statistic=0.0, independent=True, p_value=1.0)
        # realized strata only: empty ones would add zeros that regroup the sum
        counts = self.realized(self.counts(y))
        totals, rows = self.g2_margins()
        cols = counts.sum(axis=1, keepdims=True).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = rows * cols / totals
            ratio = np.where(counts > 0, counts / expected, 1.0)
            stat = 2.0 * float((counts * np.log(ratio)).sum())
        stat = max(0.0, stat)
        p = float(chdtrc(dof, stat))
        return CiVerdict(statistic=stat, independent=p > alpha, p_value=p)


def _positive(counts: np.ndarray) -> np.ndarray:
    return counts[counts > 0]


def empirical_cmi(q: CiQuery) -> float:
    """Plug-in conditional mutual information I(x; y | z) in bits per sample."""
    return _Given(q.table, q.x, q.z).cmi(q.y)


def i_sc(q: CiQuery) -> float:
    """Directional score: code length of x given z minus given z and y."""
    return _Given(q.table, q.x, q.z).i_sc(q.y)


def sci(q: CiQuery) -> CiVerdict:
    """Symmetric stochastic-complexity independence verdict.

    The statistic is the larger of the two directional scores; independence
    is declared exactly when it is <= 0. Both scores come from one
    contingency array.
    """
    return _Given(q.table, q.x, q.z).sci(q.y)


def g2_test(q: CiQuery, alpha: float = 0.01, min_samples_per_dof: float = 10.0) -> CiVerdict:
    """G^2 likelihood-ratio test within the realized strata of z.

    Degrees of freedom use the declared cardinalities with no zero-cell
    correction. When fewer than ``min_samples_per_dof`` samples per degree of
    freedom are available the test is considered unreliable and independence
    is returned without testing (set the factor to 0 to disable).
    """
    return _Given(q.table, q.x, q.z).g2(q.y, alpha, min_samples_per_dof)


class IndependenceTest:
    """A configured test bound to one table, counting every invocation.

    ``count`` is the logical number of calls. Verdicts are memoised per test
    object, so ``evaluated`` counts only the calls that computed a statistic.
    Memo keys are exact: ``(x, y, z)`` as given, except that SCI, whose
    statistic is the larger of two identically computed directions, keys on
    ``(min(x, y), max(x, y), z)``. z is never reordered, because its order
    sets the order in which a statistic's terms are summed. The configuration
    is read-only, so a memoised verdict never outlives it.

    ``pc_searches`` memoises :mod:`climb.blanket`'s one-sided searches by
    ``(target, max_cond)``. A search is a function of the verdicts it reads,
    so it shares their scope: one table, one kind, one configuration.

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
        self.pc_searches: dict[tuple[int, int], tuple] = {}
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

    def many(self, x: int, ys: Sequence[int], z: tuple[int, ...] = ()) -> list[CiVerdict]:
        """Verdicts of ``(x, y, z)`` for every y in ``ys``, in order.

        The same as calling the test once per y: each y adds one to
        ``count``, looks up the memo under its own key, and adds one to
        ``evaluated`` when it misses. The misses share one :class:`_Given`, so
        what depends only on (x, z) is computed once. An invalid query raises
        ``ValueError`` after the ys before it were counted and answered.
        """
        z = tuple(z)
        sym = self._kind == "sci"
        given = None
        out = []
        for y in ys:
            self.count += 1
            key = (y, x, z) if sym and y < x else (x, y, z)
            verdict = self._memo.get(key)
            if verdict is None:
                if given is None or not given.admits(y):
                    CiQuery(x, y, z, self._table)  # raises for an invalid query
                    if given is None:
                        given = _Given(self._table, x, z, self._regrets)
                if sym:
                    verdict = given.sci(y)
                elif self._kind == "g2":
                    verdict = given.g2(y, self._alpha, self._min_samples_per_dof)
                else:
                    value = given.cmi(y)
                    verdict = CiVerdict(statistic=value, independent=value <= self._cutoff)
                self._memo[key] = verdict
                self.evaluated += 1
            out.append(verdict)
        return out

    def strength(self, verdict: CiVerdict) -> float:
        if self._kind == "g2":
            return 1.0 - (verdict.p_value if verdict.p_value is not None else 1.0)
        return verdict.statistic


make_test = IndependenceTest
