"""Category-coded data tables and row groupings.

A :class:`CategoricalTable` holds n rows of m discrete variables as integer
code vectors. Cardinalities are *declared* (domain sizes), not inferred from
the observed codes, so categories that never occur in a sample are still part
of a variable's domain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["CategoricalTable", "group_labels"]


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
            arr = arr.copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "columns", tuple(frozen))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "cards", tuple(int(c) for c in self.cards))

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

    def column(self, i: int) -> np.ndarray:
        return self.columns[i]

    def card(self, i: int) -> int:
        return self.cards[i]

    @staticmethod
    def from_columns(pairs: Sequence[tuple[str, Iterable[int], int]]) -> "CategoricalTable":
        """Build from (name, codes, cardinality) triples."""
        names = tuple(p[0] for p in pairs)
        cols = tuple(np.asarray(p[1], dtype=np.int64) for p in pairs)
        cards = tuple(int(p[2]) for p in pairs)
        return CategoricalTable(names, cols, cards)


def group_labels(table: CategoricalTable, cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Label each row by the joint value of ``cols``.

    Returns ``(labels, sizes)`` where ``labels`` maps each row to a dense
    group id in ``[0, g)`` and ``sizes[j]`` is the number of rows in group j.
    Only realized joint values get a group. An empty ``cols`` puts every row
    into one group.
    """
    n = table.n
    if not cols:
        return np.zeros(n, dtype=np.int64), np.array([n], dtype=np.int64)
    radix = 1
    for c in cols:
        radix *= table.cards[c]
    if radix <= 4 * n + 64:
        # joint values fit a small mixed-radix code: bincount is cheapest
        code = table.columns[cols[0]].copy()
        for c in cols[1:]:
            code *= table.cards[c]
            code += table.columns[c]
        counts = np.bincount(code, minlength=radix)
        remap = np.cumsum(counts > 0, dtype=np.int64) - 1
        return remap[code], counts[counts > 0]
    # huge joint domain: sort-based dense relabeling
    stacked = np.stack([table.columns[c] for c in cols])
    _, labels, sizes = np.unique(stacked, axis=1, return_inverse=True, return_counts=True)
    return labels.astype(np.int64).ravel(), sizes.astype(np.int64)
