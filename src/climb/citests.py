"""Association and conditional-independence tests for discrete data.

Three tests sit behind one verdict type: the stochastic-complexity test
(``sci``), which needs no tuning parameter and declares independence exactly
when its statistic is <= 0; the classical G^2 likelihood-ratio test with a
significance level; and plug-in conditional mutual information against a
fixed cutoff. Each statistic is read off one (z, x, y) contingency array
per query, and :class:`IndependenceTest` memoises verdicts per test object.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np
from scipy.stats import chi2

from .nml import RegretTable, count_bits, regret_sum
from .nml import conditional_sc  # noqa: F401  (still importable from this module)
from .table import CategoricalTable, _dense_code, group_labels

__all__ = [
    "CiQuery",
    "CiVerdict",
    "empirical_cmi",
    "i_sc",
    "sci",
    "g2_test",
    "cmi_test",
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


def _contingency(q: CiQuery) -> np.ndarray:
    """Counts of the query's (z-group, x, y) triples as a (g, kx, ky) array.

    z-groups follow the lexicographic order of their values, as in
    :func:`climb.table.group_labels`, so every statistic sums its terms in
    the order a per-grouping computation would. When the whole (z..., x, y)
    domain is within the dense-counting cut that ``group_labels`` also uses,
    one mixed-radix code covers it, and unrealized z-values get empty rows;
    above the cut the rows are the realized z-groups only.
    """
    t = q.table
    kx, ky = t.cards[q.x], t.cards[q.y]
    dense = _dense_code(t, (*q.z, q.x, q.y))
    if dense is not None:
        code, radix = dense
        groups = radix // (kx * ky)
    else:
        labels, sizes = group_labels(t, list(q.z))
        groups = sizes.shape[0]
        code = (labels * kx + t.columns[q.x]) * ky + t.columns[q.y]
    return np.bincount(code, minlength=groups * kx * ky).reshape(groups, kx, ky)


def _positive(counts: np.ndarray) -> np.ndarray:
    return counts[counts > 0]


class _Margins:
    """Positive counts of one contingency array's margins, in array order.

    ``z``, ``zx`` and ``zy`` hold the sizes of the z-groups, of the (z, x)
    cells and of the (z, y) cells; ``bits_*`` their sums of c*log2(c). A code
    length of x or y given z, (z, y) or (z, x), as
    :func:`climb.nml.conditional_sc` computes it, is the groups' sum minus
    the cells' sum plus the regrets over the group sizes, in that order.
    """

    def __init__(self, counts: np.ndarray) -> None:
        self.counts = counts
        zx = counts.sum(axis=2)
        self.z = _positive(zx.sum(axis=1))
        self.zx = _positive(zx)
        self.zy = _positive(counts.sum(axis=1))
        self.bits_z = count_bits(self.z)
        self.bits_zx = count_bits(self.zx)
        self.bits_zy = count_bits(self.zy)

    def bits_zyx(self) -> float:
        """c*log2(c) over every cell, y before x: x's counts per (z, y) group."""
        return count_bits(_positive(self.counts.transpose(0, 2, 1)))

    def bits_zxy(self) -> float:
        """c*log2(c) over every cell, x before y: y's counts per (z, x) group."""
        return count_bits(_positive(self.counts))

    def i_sc_x(self, card: int, regrets: RegretTable | None) -> float:
        """Code length of x given z minus given (z, y)."""
        if card == 1:
            return 0.0
        given_z = self.bits_z - self.bits_zx + regret_sum(card, self.z, regrets)
        return given_z - (self.bits_zy - self.bits_zyx() + regret_sum(card, self.zy, regrets))

    def i_sc_y(self, card: int, regrets: RegretTable | None) -> float:
        """Code length of y given z minus given (z, x)."""
        if card == 1:
            return 0.0
        given_z = self.bits_z - self.bits_zy + regret_sum(card, self.z, regrets)
        return given_z - (self.bits_zx - self.bits_zxy() + regret_sum(card, self.zx, regrets))


def empirical_cmi(q: CiQuery) -> float:
    """Plug-in conditional mutual information I(x; y | z) in bits per sample."""
    n = q.table.n
    if n == 0:
        return 0.0
    m = _Margins(_contingency(q))
    value = ((m.bits_z - m.bits_zx) - (m.bits_zy - m.bits_zyx())) / n
    # the entropy subtraction leaves noise of a few ulp on exactly
    # factorized counts; genuine sample dependence sits far above this
    return value if value > 1e-12 else 0.0


def i_sc(q: CiQuery, regrets: RegretTable | None = None) -> float:
    """Directional score: code length of x given z minus given z and y."""
    return _Margins(_contingency(q)).i_sc_x(q.table.cards[q.x], regrets)


def sci(q: CiQuery, regrets: RegretTable | None = None) -> CiVerdict:
    """Symmetric stochastic-complexity independence verdict.

    The statistic is the larger of the two directional scores; independence
    is declared exactly when it is <= 0. Both scores come from one
    contingency array.
    """
    m = _Margins(_contingency(q))
    forward = m.i_sc_x(q.table.cards[q.x], regrets)
    backward = m.i_sc_y(q.table.cards[q.y], regrets)
    statistic = max(forward, backward)
    return CiVerdict(statistic=statistic, independent=statistic <= 0.0)


def g2_test(q: CiQuery, alpha: float = 0.01, min_samples_per_dof: float = 10.0) -> CiVerdict:
    """G^2 likelihood-ratio test within the realized strata of z.

    Degrees of freedom use the declared cardinalities with no zero-cell
    correction. When fewer than ``min_samples_per_dof`` samples per degree of
    freedom are available the test is considered unreliable and independence
    is returned without testing (set the factor to 0 to disable).
    """
    t = q.table
    n = t.n
    kx, ky = t.cards[q.x], t.cards[q.y]
    dof = (kx - 1) * (ky - 1)
    for c in q.z:
        dof *= t.cards[c]
    if dof <= 0:
        return CiVerdict(statistic=0.0, independent=True, p_value=1.0)
    if n < min_samples_per_dof * dof:
        return CiVerdict(statistic=0.0, independent=True, p_value=1.0)
    counts = _contingency(q)
    # realized strata only: empty ones would add zeros that regroup the sum
    counts = counts[counts.sum(axis=(1, 2)) > 0]
    totals = counts.sum(axis=(1, 2), keepdims=True).astype(np.float64)
    rows = counts.sum(axis=2, keepdims=True).astype(np.float64)
    cols = counts.sum(axis=1, keepdims=True).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows * cols / totals
        ratio = np.where(counts > 0, counts / expected, 1.0)
        stat = 2.0 * float((counts * np.log(ratio)).sum())
    stat = max(0.0, stat)
    p = float(chi2.sf(stat, dof))
    return CiVerdict(statistic=stat, independent=p > alpha, p_value=p)


def cmi_test(q: CiQuery, cutoff: float = 0.0) -> CiVerdict:
    """Plug-in conditional mutual information against a fixed cutoff."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    value = empirical_cmi(q)
    return CiVerdict(statistic=value, independent=value <= cutoff)


class IndependenceTest:
    """A configured test bound to one table, counting every invocation.

    ``count`` is the logical number of calls. Verdicts are memoised per test
    object, so ``evaluated`` counts only the calls that computed a statistic.
    Memo keys are exact: ``(x, y, z)`` as given, except that SCI, whose
    statistic is the larger of two identically computed directions, keys on
    ``(min(x, y), max(x, y), z)``. z is never reordered, because its order
    sets the order in which a statistic's terms are summed. The configuration
    is read-only, so a memoised verdict never outlives it.

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
        self.count = 0
        self.evaluated = 0

    table = property(attrgetter("_table"))
    kind = property(attrgetter("_kind"))
    alpha = property(attrgetter("_alpha"))
    cutoff = property(attrgetter("_cutoff"))
    min_samples_per_dof = property(attrgetter("_min_samples_per_dof"))
    regrets = property(attrgetter("_regrets"))

    def __call__(self, x: int, y: int, z: tuple[int, ...] = ()) -> CiVerdict:
        self.count += 1
        z = tuple(z)
        key = (y, x, z) if y < x and self._kind == "sci" else (x, y, z)
        verdict = self._memo.get(key)
        if verdict is None:
            q = CiQuery(x, y, z, self._table)
            if self._kind == "sci":
                verdict = sci(q, self._regrets)
            elif self._kind == "g2":
                verdict = g2_test(q, self._alpha, self._min_samples_per_dof)
            else:
                verdict = cmi_test(q, self._cutoff)
            self._memo[key] = verdict
            self.evaluated += 1
        return verdict

    def strength(self, verdict: CiVerdict) -> float:
        if self._kind == "g2":
            return 1.0 - (verdict.p_value if verdict.p_value is not None else 1.0)
        return verdict.statistic


make_test = IndependenceTest
