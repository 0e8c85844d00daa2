"""Category-coded data tables and row groupings.

A :class:`CategoricalTable` holds n rows of m discrete variables as integer
code vectors. Cardinalities are *declared* (domain sizes), not inferred from
the observed codes, so categories that never occur in a sample are still part
of a variable's domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = ["CategoricalTable", "group_labels", "refine_labels"]


class _Handover(tuple):
    """Columns that nothing else holds: a table takes them over instead of copying them."""


class _RowBits(dict):
    """Per column, one bitset of its rows per value, built on first use.

    ``bits[col]`` is a (k, w) uint64 array, w = ⌈n / 64⌉: bit r of row v is
    set when row r holds value v, and the bits past n are clear. A column
    costs k·w words, k/64 of the column itself.
    """

    def __init__(self, columns: tuple[np.ndarray, ...], cards: tuple[int, ...]) -> None:
        super().__init__()
        self._columns = columns
        self._cards = cards

    def __missing__(self, col: int) -> np.ndarray:
        column, card = self._columns[col], self._cards[col]
        n = column.shape[0]
        packed = np.zeros((card, 8 * -(-n // 64)), dtype=np.uint8)  # whole words of bytes
        # a few values at a time, so that the (values, n) mask stays within 1 MiB
        step = max(1, (1 << 20) // max(n, 1))
        for v in range(0, card, step):
            values = np.arange(v, min(v + step, card))[:, np.newaxis]
            mask = np.packbits(column == values, axis=1, bitorder="little")
            packed[v:v + step, :mask.shape[1]] = mask
        self[col] = bits = packed.view(np.uint64)
        return bits


@dataclass(frozen=True)
class CategoricalTable:
    """Immutable n x m table of category codes with declared cardinalities.

    names:   one name per column
    columns: one int64 vector of codes per column, all of equal length;
             codes in column i lie in [0, cards[i])
    cards:   declared domain size per column, each >= 1
    """

    names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    cards: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.columns) == len(self.cards)):
            raise ValueError("names, columns and cards must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate column names")
        frozen = []
        adopt = isinstance(self.columns, _Handover)
        n = None
        for name, col, card in zip(self.names, self.columns, self.cards):
            if card < 1:
                raise ValueError(f"column {name!r}: cardinality must be >= 1")
            arr = np.asarray(col, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r}: expected 1-d code vector")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError("columns differ in length")
            if arr.size and (arr.min() < 0 or arr.max() >= card):
                raise ValueError(f"column {name!r}: code outside [0, {card})")
            if not adopt:
                arr = arr.copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "columns", tuple(frozen))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "cards", tuple(int(c) for c in self.cards))

    @cached_property
    def _row_bits(self) -> _RowBits:
        """The row bitsets of every column, each built on its first use."""
        return _RowBits(self.columns, self.cards)

    @property
    def n(self) -> int:
        """Row count."""
        return int(self.columns[0].shape[0]) if self.columns else 0

    @property
    def m(self) -> int:
        """Column count."""
        return len(self.columns)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None

    @staticmethod
    def from_columns(pairs: Sequence[tuple[str, Iterable[int], int]]) -> "CategoricalTable":
        """Build from (name, codes, cardinality) triples."""
        names = tuple(p[0] for p in pairs)
        cols = tuple(np.asarray(p[1], dtype=np.int64) for p in pairs)
        cards = tuple(int(p[2]) for p in pairs)
        return CategoricalTable(names, cols, cards)


def _countable(radix: int, n: int) -> bool:
    """Whether a bincount over a domain of ``radix`` values pays off for ``n`` rows.

    Above 4n + 64 a bincount over the whole domain costs more than grouping
    the realized values.
    """
    return radix <= 4 * n + 64


def _dense_code(table: CategoricalTable, cols: Sequence[int]) -> tuple[np.ndarray, int] | None:
    """Mixed-radix code of each row's joint value of ``cols``, and the domain size.

    ``None`` when the joint domain is above the :func:`_countable` cut. The
    first column is the most significant digit, so codes follow the
    lexicographic order of the joint values. ``cols`` must be non-empty.
    """
    radix = 1
    for c in cols:
        radix *= table.cards[c]
    if not _countable(radix, table.n):
        return None
    code = table.columns[cols[0]].copy()
    for c in cols[1:]:
        code *= table.cards[c]
        code += table.columns[c]
    return code, radix


def _compact(code: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense labels and sizes of the realized values of ``code``.

    ``counts`` is the bincount of ``code``, of any length past its maximum.
    The realized values are numbered in order, and each row looks its label
    up by its value.
    """
    realized = np.flatnonzero(counts)
    remap = np.empty(counts.shape[0], dtype=np.int64)
    remap[realized] = np.arange(realized.shape[0])
    return remap[code], counts[realized]


def refine_labels(
    table: CategoricalTable, labels: np.ndarray, sizes: np.ndarray, col: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split a row grouping by one more, less significant, column.

    ``labels``/``sizes`` are a grouping as :func:`group_labels` returns it;
    the result groups the rows by (old group, value of ``col``), numbered in
    that lexicographic order, so refining ``group_labels(table, cols)`` by
    ``c`` gives exactly ``group_labels(table, [*cols, c])``. Up to the
    :func:`_countable` cut on g * k one bincount relabels; above it a 1-D
    sort of the codes does, so a wide column never allocates a g * k array.
    """
    card = table.cards[col]
    code = labels * card + table.columns[col]
    radix = sizes.shape[0] * card
    if _countable(radix, table.n):
        return _compact(code, np.bincount(code, minlength=radix))
    _, inverse, counts = np.unique(code, return_inverse=True, return_counts=True)
    return inverse.astype(np.int64), counts.astype(np.int64)


def group_labels(table: CategoricalTable, cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Label each row by the joint value of ``cols``.

    Returns ``(labels, sizes)`` where ``labels`` maps each row to a dense
    group id in ``[0, g)`` and ``sizes[j]`` is the number of rows in group j.
    Only realized joint values get a group, numbered in the lexicographic
    order of their values, first column most significant. An empty ``cols``
    puts every row into one group.
    """
    dense = _dense_code(table, cols) if cols else None
    if dense is not None:
        code, radix = dense
        return _compact(code, np.bincount(code, minlength=radix))
    n = table.n
    labels, sizes = np.zeros(n, dtype=np.int64), np.array([n], dtype=np.int64)
    # a huge joint domain is refined one column at a time, over realized groups only
    for c in cols:
        labels, sizes = refine_labels(table, labels, sizes, c)
    return labels, sizes
