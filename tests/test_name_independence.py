"""Blanket searches must not depend on column names or column order.

``renamed`` gives a table's columns fresh names in a fresh order, and
``moved`` lists the targets whose ``find_pc`` set, ``climb`` parents,
children and spouses, or ``pcmb`` blanket do not map onto the original
ones under that renaming. SCI's statistics are continuous, so no tie is
broken by name and nothing moves. G²'s strength ``1 - p`` cannot tell
p-values below about 1.1e-16 apart (it is exactly 1.0 for p <= 2^-54), so
those candidates are ranked by name (ROADMAP item 1).
"""
from functools import cache

import numpy as np
import pytest

from climb.blanket import climb, find_pc, pcmb
from climb.citests import make_test
from climb.netgen import alarm_network, blanket_demo_network
from climb.sampling import SampleSpec, forward_sample
from climb.table import CategoricalTable

FIXTURES = {
    "alarm": lambda: forward_sample(alarm_network(), SampleSpec(1000, 0.0, 7)),
    "blanket_demo": lambda: forward_sample(blanket_demo_network(), SampleSpec(2000, 0.0, 3)),
}


def renamed(table: CategoricalTable, seed: int) -> tuple[CategoricalTable, list[int]]:
    """``table`` with its columns reordered and renamed at random, and the old index of each new column."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(table.m).tolist()
    names = tuple(f"v{k}" for k in rng.permutation(table.m))
    columns = tuple(table.columns[i] for i in order)
    return CategoricalTable(names, columns, tuple(table.cards[i] for i in order)), order


def blankets(table: CategoricalTable, kind: str) -> list[tuple[frozenset[int], ...]]:
    """Per target: its ``find_pc`` set, ``climb`` parents, children and spouses, and ``pcmb`` blanket."""
    test = make_test(table, kind)
    out = []
    for t in range(table.m):
        found = climb(table, t, test)
        out.append((find_pc(table, t, test)[0], found.parents, found.children, found.spouses,
                    pcmb(table, t, test)[0]))
    return out


@cache
def table_and_blankets(fixture: str, kind: str) -> tuple[CategoricalTable, list]:
    table = FIXTURES[fixture]()
    return table, blankets(table, kind)


def moved(fixture: str, kind: str, seed: int) -> list[str]:
    """The targets whose results do not map onto the original ones under :func:`renamed`."""
    table, want = table_and_blankets(fixture, kind)
    new, order = renamed(table, seed)
    return [table.names[order[i]] for i, sets in enumerate(blankets(new, kind))
            if tuple(frozenset(order[j] for j in s) for s in sets) != want[order[i]]]


def test_renamed_maps_columns_back():
    table = FIXTURES["blanket_demo"]()
    new, order = renamed(table, 1)
    assert sorted(order) == list(range(table.m)) and order != list(range(table.m))
    assert sorted(new.names) != sorted(table.names)
    for i, old in enumerate(order):
        assert new.cards[i] == table.cards[old]
        assert np.array_equal(new.columns[i], table.columns[old])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_sci_results_do_not_depend_on_names(fixture, seed):
    _, want = table_and_blankets(fixture, "sci")
    assert any(pc for pc, *_ in want), "the fixture has no edge to move"
    targets = moved(fixture, "sci", seed)
    assert not targets, f"{len(targets)} targets moved: {targets}"


@pytest.mark.xfail(strict=True, reason="G² strength saturates, so ties go by name (ROADMAP item 1)")
@pytest.mark.parametrize("seed", [1, 2])
def test_g2_results_do_not_depend_on_names(seed):
    targets = moved("alarm", "g2", seed)
    assert not targets, f"{len(targets)} of 37 targets moved: {targets}"
