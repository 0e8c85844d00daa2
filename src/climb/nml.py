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

Stochastic complexity of a column is its plug-in-entropy code length plus the
log-regret; the conditional variant sums per-group complexities over the
realized groups of a conditioning partition, always with the column's full
declared cardinality.
"""
from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "RegretTable",
    "shared_regrets",
    "log_regret",
    "plugin_entropy",
    "count_bits",
    "regret_sum",
    "stochastic_complexity",
    "conditional_sc",
    "delta",
]

_BLOCK = 2048
_TAIL_REL = 2.0 ** -70


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
        while True:
            js = np.arange(j, j + size, dtype=np.float64)
            fac = (nf - js + 1.0) * (js + card - 2.0) / (nf * js)
            with np.errstate(over="ignore", under="ignore"):
                run = np.cumprod(fac)
                run *= term_m
            last = float(run[-1])
            # a block must stay inside double range end to end; factors are
            # individually bounded, so halving always terminates
            if last > 0.0 and math.isfinite(last) and float(run.max()) < 8.9e270:
                break
            size //= 2
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


class RegretTable:
    """Memoized log2-regret values, one incremental prefix per cardinality.

    Computing the value for (k, n) fills every (k, n') with n' <= n; the
    per-k prefixes are retained for the lifetime of the table. Fills are
    serialized and idempotent, so concurrent readers always observe
    identical values.
    """

    def __init__(self) -> None:
        self._prefix: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def _ensure(self, card: int, n: int) -> np.ndarray:
        arr = self._prefix.get(card)
        if arr is not None and arr.shape[0] > n:
            return arr
        with self._lock:
            arr = self._prefix.get(card)
            if arr is not None and arr.shape[0] > n:
                return arr
            old = 0 if arr is None else arr.shape[0]
            new = np.empty(n + 1, dtype=np.float64)
            if old:
                new[:old] = arr
            for i in range(old, n + 1):
                new[i] = _regret_bits(card, i)
            new.flags.writeable = False
            self._prefix[card] = new
            return new

    def log_regret(self, card: int, n: int) -> float:
        """log2-regret in bits for domain size ``card`` over ``n`` samples."""
        if card < 1:
            raise ValueError("cardinality must be >= 1")
        if n < 0:
            raise ValueError("sample count must be >= 0")
        if card == 1 or n == 0:
            return 0.0
        return float(self._ensure(card, n)[n])

    def log_regret_many(self, card: int, ns: np.ndarray) -> np.ndarray:
        """Vectorized lookup for an array of sample counts."""
        ns = np.asarray(ns, dtype=np.int64)
        if card == 1 or ns.size == 0:
            return np.zeros(ns.shape, dtype=np.float64)
        arr = self._ensure(card, int(ns.max()))
        return arr[ns]

    def filled_upto(self, card: int) -> int:
        arr = self._prefix.get(card)
        return -1 if arr is None else arr.shape[0] - 1


_SHARED = RegretTable()


def shared_regrets() -> RegretTable:
    """The process-lifetime table shared by default across all scoring calls."""
    return _SHARED


def log_regret(card: int, n: int, regrets: RegretTable | None = None) -> float:
    return (regrets or _SHARED).log_regret(card, n)


def plugin_entropy(counts: np.ndarray) -> float:
    """Plug-in entropy in bits of a count vector, with 0 log 0 = 0."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if n <= 0:
        return 0.0
    pos = counts[counts > 0]
    return float(math.log2(n) - (pos * np.log2(pos)).sum() / n)


def _cells(x: np.ndarray, card: int, labels: np.ndarray, groups: int) -> np.ndarray:
    """Contingency counts, one row per realized conditioning group."""
    joint = labels * card + x
    return np.bincount(joint, minlength=groups * card).reshape(groups, card)


def count_bits(counts: np.ndarray) -> float:
    """Sum of c * log2(c) in bits over ``counts``, which must all be positive."""
    c = counts.astype(np.float64)
    return float((c * np.log2(c)).sum())


def regret_sum(card: int, sizes: np.ndarray, regrets: RegretTable | None = None) -> float:
    """Sum of the log2-regrets of ``card`` values over groups of the given sizes."""
    return float((regrets or _SHARED).log_regret_many(card, sizes).sum())


def stochastic_complexity(x: np.ndarray, card: int, regrets: RegretTable | None = None) -> float:
    """Code length in bits of a code vector under its declared domain size."""
    x = np.asarray(x, dtype=np.int64)
    n = x.shape[0]
    if n == 0 or card == 1:
        return 0.0
    counts = np.bincount(x, minlength=card)
    return n * plugin_entropy(counts) + log_regret(card, n, regrets)


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
    cells = _cells(x, card, labels, groups)
    sizes = cells.sum(axis=1)
    # data bits, the sum over groups of h_v * H(x | group v), then the regrets
    return count_bits(sizes[sizes > 0]) - count_bits(cells[cells > 0]) + regret_sum(card, sizes, regrets)


def delta(card: int, labels: np.ndarray, regrets: RegretTable | None = None) -> float:
    """Regret-only part of the conditional code length: sum of per-group log-regrets."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0 or card == 1:
        return 0.0
    return regret_sum(card, np.bincount(labels), regrets)
