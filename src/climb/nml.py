"""Exact multinomial stochastic complexity.

The normalizer of the normalized-maximum-likelihood distribution for a
k-valued variable over n samples ("regret") is evaluated with the linear
recursion over summands

    m(0, n) = 1,    m(j, n) = m(j-1, n) * (n - j + 1)(j + k - 2) / (n j),

whose total over j = 0..n equals the regret. Summands are accumulated in the
linear domain with a tracked binary exponent, so the result is exact to
double precision for any (k, n) without overflow. Summation stops only once
the remaining tail is provably below 2^-70 of the accumulated total (the
summand ratio is strictly decreasing, which bounds the tail geometrically);
everything else is the full linear recursion.

:class:`RegretTable` memoizes these values per (k, n) and computes an entry
only when a lookup asks for it, so a fresh table costs the distinct pairs its
queries touch, not every n' <= n. Each entry is the same scalar evaluation
whatever was asked before, so values are bit-identical to a full fill.
``RegretTable.filled_upto(k)`` is the number of entries computed for k,
minus one.

Every code length here is :func:`conditional_sc`, a column over a grouping
of the rows, and ends in one formula, ``_code_bits``: over the groups, the
sum of h·log2(h) over the group sizes, minus the sum of c·log2(c) over the
column's positive cells, plus the log-regret of each group, always with
the column's full declared cardinality. The stochastic complexity of a
column is the one-group case, and :func:`delta` the regrets alone.
"""
from __future__ import annotations

import functools
import math
import threading

import numpy as np

__all__ = [
    "RegretTable",
    "shared_regrets",
    "plugin_entropy",
    "stochastic_complexity",
    "conditional_sc",
    "delta",
]

_BLOCK = 2048
_TAIL_REL = 2.0 ** -70
# a block's running products must stay below this, so that its sum stays finite
_RUN_CAP = 8.9e270


# factors are individually bounded; only a block's running products leave range
@np.errstate(over="ignore", under="ignore")
def _regret_bits(card: int, n: int) -> float:
    """log2 of the multinomial regret for domain size ``card`` and ``n`` samples."""
    if card <= 1 or n <= 0:
        return 0.0
    nf = float(n)
    total_m, total_e = 1.0, 0  # running sum, total_m * 2**total_e; starts at m(0, n)
    term_m, term_e = 1.0, 0  # current summand
    j = 1
    while j <= n:
        size = min(_BLOCK, n - j + 1)
        js = np.arange(j, j + size, dtype=np.float64)
        fac = (nf - js + 1.0) * (js + card - 2.0) / (nf * js)
        run = np.cumprod(fac)
        run *= term_m
        # a block must stay inside double range end to end; a shorter block's
        # run is a prefix of this one, so halving only re-checks and always
        # terminates
        while True:
            last = float(run[-1])
            if last > 0.0 and math.isfinite(last) and float(run.max()) < _RUN_CAP:
                break
            size //= 2
            run = run[:size]
        bsum = float(run.sum())
        # total always dominates the previous summand, so the shift is <= 2
        total_m += bsum * 2.0 ** (term_e - total_e)
        mant, ex = math.frexp(total_m)
        total_m, total_e = mant, total_e + ex
        mant, ex = math.frexp(last)
        term_m, term_e = mant, term_e + ex
        j += size
        flast = float(fac[size - 1])
        if flast < 0.999:
            rel = (term_m / total_m) * 2.0 ** (term_e - total_e)
            if rel * flast / (1.0 - flast) < _TAIL_REL:
                break
    return math.log2(total_m) + total_e


# ``_regret_rows`` works through this many sample counts per 2-D block
_ROWS = 64
# natural logs of the smallest positive double and of the range check's cap
_LN_TINY = math.log(5e-324)
_LN_CAP = math.log(_RUN_CAP)


def _regret_rows(card: int, ns: np.ndarray) -> np.ndarray:
    """``_regret_bits(card, n)`` for each n of ``ns``, distinct and ascending.

    The n up to ``_BLOCK`` go through 2-D blocks of ``_ROWS`` rows. A block
    shares ``js = 1..max n`` and one ``cumprod(axis=1)``, and each row reads
    only its own prefix: for a row that passes the range check there, this
    is the scalar recursion's single block with no halving, so its summands,
    their sum and the result are the same bit for bit. A row that fails the
    check, every n above ``_BLOCK``, and every n whose last running product
    m(n, n) = (n + card - 2)! / ((card - 2)! n^n) lies outside double range
    (from n = 749 at card 2), so that the check must fail, are computed by
    :func:`_regret_bits` itself, which stays the definition.
    """
    out = np.zeros(ns.shape[0])  # n = 0 has no summand past m(0, 0) = 1
    rows = []
    base = math.lgamma(card - 1)
    for i, n in enumerate(ns.tolist()):
        if 0 < n <= _BLOCK and _LN_TINY < math.lgamma(n + card - 1) - base - n * math.log(n) < _LN_CAP:
            rows.append((i, n))
        elif n > 0:
            out[i] = _regret_bits(card, n)
    for lo in range(0, len(rows), _ROWS):
        block = rows[lo:lo + _ROWS]
        js = np.arange(1.0, block[-1][1] + 1.0)
        nf = np.array([n for _, n in block], dtype=np.float64)[:, np.newaxis]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            run = np.cumprod((nf - js + 1.0) * (js + card - 2.0) / (nf * js), axis=1)
        # past its own n a row's factors are 0 and below, so its maximum is its
        # prefix's (or NaN once the prefix overflowed)
        for r, ((i, n), top) in enumerate(zip(block, run.max(axis=1).tolist())):
            if run[r, n - 1] > 0.0 and top < _RUN_CAP:
                mant, ex = math.frexp(1.0 + float(np.add.reduce(run[r, :n])))
                out[i] = math.log2(mant) + ex
            else:
                out[i] = _regret_bits(card, n)
    return out


class RegretTable:
    """Memoized log2-regret values, computed only for the (k, n) pairs asked for.

    Each cardinality keeps one float64 array indexed by n, with NaN marking
    the entries not computed yet. A lookup that meets a NaN computes just the
    missing sample counts, all of them in one pass that gives each the value
    of the scalar recursion bit for bit, so a value never depends on which
    other pairs were asked for before it or with it. Values are retained for
    the lifetime of the table. Computations are serialized and
    idempotent, so concurrent readers always observe identical values.
    Code lengths sum their regrets through ``_log_regret_sum``, whose hit
    path is one gather and one sum, and which leaves every miss to
    :meth:`log_regret_many`.
    """

    def __init__(self) -> None:
        self._values: dict[int, np.ndarray] = {}
        self._computed: dict[int, int] = {}
        self._lock = threading.Lock()

    def _fill(self, card: int, ns: np.ndarray) -> np.ndarray:
        """Compute every entry of ``ns`` not yet known; returns the card's array.

        The missing sample counts, distinct and ascending, go to
        :func:`_regret_rows` together, which fills them row-wise in 2-D blocks
        and hands a row that needs a second summation block or fails the range
        check to :func:`_regret_bits`. ``filled_upto`` counts every entry
        computed here.
        """
        with self._lock:
            arr = self._values.get(card)
            top = int(ns.max())
            if arr is None or arr.shape[0] <= top:
                # entries written below are published only with the grown array
                grown = np.full(top + 1, np.nan)
                if arr is not None:
                    grown[: arr.shape[0]] = arr
                arr = grown
            missing = np.unique(ns[np.isnan(arr[ns])])
            arr[missing] = _regret_rows(card, missing)
            self._computed[card] = self._computed.get(card, 0) + missing.size
            self._values[card] = arr
            return arr

    def log_regret(self, card: int, n: int) -> float:
        """log2-regret in bits for domain size ``card`` over ``n`` samples."""
        return float(self.log_regret_many(card, np.array([n]))[0])

    def log_regret_many(self, card: int, ns: np.ndarray) -> np.ndarray:
        """Vectorized lookup for an array of sample counts."""
        if card < 1:
            raise ValueError("cardinality must be >= 1")
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size == 0:
            return np.zeros(ns.shape, dtype=np.float64)
        if ns.min() < 0:
            raise ValueError("sample count must be >= 0")
        if card == 1:
            return np.zeros(ns.shape, dtype=np.float64)
        arr = self._values.get(card)
        if arr is not None:
            try:
                out = arr[ns]
            except IndexError:  # some n beyond the array: computed below
                pass
            else:
                if not np.isnan(out).any():
                    return out
        return self._fill(card, ns)[ns]

    def _log_regret_sum(self, card: int, sizes: np.ndarray) -> float:
        """``float(np.add.reduce(self.log_regret_many(card, sizes)))``, bit for bit.

        ``sizes`` are non-negative int64 sample counts. When every entry is
        known, the sum is one gather from the card's array and one
        ``add.reduce``, and a NaN sum means an entry is missing. Anything
        else goes through :meth:`log_regret_many` itself: a missing entry, a
        size beyond the card's array, and a card of at most one value, which
        has no array. So fills, their lock and ``filled_upto`` are the
        lookup's, and a hit never takes the lock.
        """
        arr = self._values.get(card)
        if arr is not None:
            try:
                total = np.add.reduce(arr[sizes])
            except IndexError:  # some size beyond the array: filled below
                pass
            else:
                if not math.isnan(total):
                    return float(total)
        return float(np.add.reduce(self.log_regret_many(card, sizes)))

    def filled_upto(self, card: int) -> int:
        """Number of entries computed for ``card``, minus one (-1 when none).

        After a lookup of every n' <= n on a fresh table this is n.
        """
        return self._computed.get(card, 0) - 1


_SHARED = RegretTable()


def shared_regrets() -> RegretTable:
    """The process-lifetime table shared by default across all scoring calls."""
    return _SHARED


def plugin_entropy(counts: np.ndarray) -> float:
    """Plug-in entropy in bits of a count vector, with 0 log 0 = 0."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if n <= 0:
        return 0.0
    pos = counts[counts > 0]
    return float(math.log2(n) - (pos * np.log2(pos)).sum() / n)


@functools.lru_cache(maxsize=16)
def _count_bits_table(n: int) -> np.ndarray:
    """c * log2(c) for c = 0..n, with 0 at c = 0; read-only and cached per n.

    Every c·log2(c) sum in the package is a gather from this table over
    counts up to ``n``, summed in the order of the counts.
    """
    c = np.arange(1, n + 1, dtype=np.float64)
    table = np.concatenate(([0.0], c * np.log2(c)))
    table.flags.writeable = False
    return table


def _row_sums(cells: np.ndarray, width: int) -> np.ndarray:
    """Exact row sums of a flat count array read as rows of ``width`` cells.

    numpy's ``sum(axis=1)`` is slow over rows of a few values. Widths 2 to 4
    take width - 1 strided adds; any other width takes one ``einsum``, whose
    cost does not grow with the width (the adds take about 200 µs at width
    256). Over 8,064 cells the adds took 5.2/5.2/7.2 µs at widths 2/3/4
    against 23.2/12.6/11.0 µs for the ``einsum`` (timeit, 2-core x86 VM), and
    an ``einsum``-only build left ``dense-roles`` partition search 13 % slower
    end to end. Both sum integers, so they are exact.
    """
    if not 2 <= width <= 4:
        return np.einsum("ij->i", cells.reshape(-1, width))
    sums = cells[0::width] + cells[1::width]
    for r in range(2, width):
        sums += cells[r::width]
    return sums


def _code_bits(xlog: np.ndarray, cells: np.ndarray, sizes: np.ndarray, card: int,
               regrets: RegretTable | None) -> float:
    """Code length in bits of a column over groups, from its counts.

    ``cells`` holds the column's value counts, group by group, zero rows
    of unrealized groups allowed; ``sizes`` the realized group sizes;
    ``xlog`` the :func:`_count_bits_table` over 0..n. The data bits, the sum
    over groups of h·H(x | group), are the groups' h·log2(h) minus the
    positive cells' c·log2(c) (taken by ``compress``), each summed in array
    order; the regrets are those of ``card`` values per group, summed by
    ``RegretTable._log_regret_sum``.
    """
    data = float(xlog[sizes].sum()) - float(xlog[cells.compress(cells > 0)].sum())
    return data + (regrets or _SHARED)._log_regret_sum(card, sizes)


def stochastic_complexity(x: np.ndarray, card: int, regrets: RegretTable | None = None) -> float:
    """Code length in bits of a code vector under its declared domain size.

    :func:`conditional_sc` over one group of all rows.
    """
    return conditional_sc(x, card, np.zeros(np.shape(x)[0], dtype=np.int64), regrets)


def conditional_sc(
    x: np.ndarray,
    card: int,
    labels: np.ndarray,
    regrets: RegretTable | None = None,
) -> float:
    """Conditional code length of ``x`` given a grouping of the rows.

    ``labels`` assigns every row to a realized conditioning group (dense ids
    as produced by :func:`climb.table.group_labels`). Each group contributes
    its plug-in conditional entropy plus a regret term over the column's full
    declared cardinality.
    """
    x = np.asarray(x, dtype=np.int64)
    n = x.shape[0]
    if n == 0 or card == 1:
        return 0.0
    labels = np.asarray(labels, dtype=np.int64)
    groups = int(labels.max()) + 1 if labels.size else 0
    cells = np.bincount(labels * card + x, minlength=groups * card)
    return _code_bits(_count_bits_table(n), cells, _row_sums(cells, card), card, regrets)


def delta(card: int, labels: np.ndarray) -> float:
    """Regret-only part of the conditional code length: sum of per-group log-regrets."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0 or card == 1:
        return 0.0
    return _SHARED._log_regret_sum(card, np.bincount(labels))
