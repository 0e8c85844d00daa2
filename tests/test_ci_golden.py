"""Bit-exact regression of the CI statistics on fixed queries.

``ci_golden.json`` holds ``float.hex`` of ``sci``, the directional score
(``i_sc``), ``g2_test`` and the CMI statistic for every query built below,
recorded before the CI layer moved to one contingency kernel. SCI declares
independence at ``<= 0`` and G² at its alpha cut, so a one-ulp drift can flip
a verdict: equality here is bitwise, not approximate.

The queries cover x/y swaps, permuted conditioning sets, conditioning sets
with unrealized strata, a cardinality-1 column, an empty table, and joint
domains above the dense-counting cut (``4n + 64``), both through the realized
z-groups and through the sort path of ``group_labels``.

    PYTHONPATH=src python tests/test_ci_golden.py --write

rewrites the file from the code as it stands; only do that for a change
that is meant to move a statistic, and say so.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from climb.citests import CiQuery, g2_test, make_test, sci
from climb.netgen import alarm_network
from climb.nml import conditional_sc
from climb.sampling import SampleSpec, derive_seed, forward_sample
from climb.table import CategoricalTable, group_labels

GOLDEN = Path(__file__).with_name("ci_golden.json")


def _alarm_tables() -> dict[str, CategoricalTable]:
    data = forward_sample(alarm_network(), SampleSpec(1000, 0.0, 0))
    # a constant column with a one-value domain
    alarm = CategoricalTable(
        data.names + ("ONE",),
        data.columns + (np.zeros(data.n, dtype=np.int64),),
        data.cards + (1,),
    )
    empty = CategoricalTable(alarm.names, tuple(c[:0] for c in alarm.columns), alarm.cards)
    tables = {"alarm": alarm, "empty": empty}
    # the zero-baseline pairs: kx = 4, ky up to 1024 at n = 1000
    for counter, ky in enumerate((256, 1024)):
        rng = np.random.Generator(np.random.PCG64(derive_seed(0, counter)))
        x = rng.integers(0, 4, size=1000)
        y = rng.integers(0, ky, size=1000)
        tables[f"zero{ky}"] = CategoricalTable(("X", "Y"), (x, y), (4, ky))
    return tables


def _queries(tables: dict[str, CategoricalTable]) -> list[tuple[str, int, int, tuple[int, ...]]]:
    alarm = tables["alarm"]
    m = alarm.m
    one = alarm.index_of("ONE")
    rng = np.random.default_rng(20181)
    out: list[tuple[str, int, int, tuple[int, ...]]] = []

    def add(x: int, y: int, z: tuple[int, ...], name: str = "alarm") -> None:
        # every query also in its swapped and z-reversed forms
        for q in ((x, y, z), (y, x, z), (x, y, z[::-1])):
            if (name,) + q not in out:
                out.append((name,) + q)

    for size in (0, 1, 1, 2, 2, 2, 3, 3, 3, 3) * 6:
        pick = rng.choice(m - 1, size=size + 2, replace=False)
        add(int(pick[0]), int(pick[1]), tuple(int(v) for v in pick[2:]))
    # joint domains above the dense cut: realized z-groups, and wider z that
    # group_labels itself has to sort
    for size in (5, 6, 7, 8, 9):
        pick = rng.choice(m - 1, size=size + 2, replace=False)
        add(int(pick[0]), int(pick[1]), tuple(int(v) for v in pick[2:]))
    # the one-value column as x, as y and inside z
    add(one, 0, ())
    add(0, one, (1, 2))
    add(3, 4, (one, 5))
    for z in ((), (0, 1)):
        add(2, 3, z, "empty")
    for ky in (256, 1024):
        add(0, 1, (), f"zero{ky}")
    return out


def directional_score(q: CiQuery) -> float:
    """Code length of x given z minus given (z, y)."""
    x, card = q.table.columns[q.x], q.table.cards[q.x]
    given_z = conditional_sc(x, card, group_labels(q.table, list(q.z))[0])
    return given_z - conditional_sc(x, card, group_labels(q.table, [*q.z, q.y])[0])


def _record(q: CiQuery) -> dict[str, str]:
    g2 = g2_test(q, 0.01, 0.0)
    g2_floor = g2_test(q)
    return {
        "sci": sci(q).statistic.hex(),
        "i_sc": directional_score(q).hex(),
        "g2": g2.statistic.hex(),
        "g2_p": g2.p_value.hex(),
        "g2_floor_p": g2_floor.p_value.hex(),
        "cmi": make_test(q.table, "cmi")(q.x, q.y, q.z).statistic.hex(),
    }


def _key(name: str, x: int, y: int, z: tuple[int, ...]) -> str:
    return f"{name}:{x},{y}|{','.join(map(str, z))}"


@pytest.fixture(scope="module")
def tables():
    return _alarm_tables()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_query_set_covers_the_edge_cases(tables):
    queries = _queries(tables)
    alarm = tables["alarm"]
    realized, above_cut, sorted_z = 0, 0, 0
    for name, x, y, z in queries:
        if name != "alarm" or not z:
            continue
        radix = int(np.prod([alarm.cards[c] for c in z]))
        groups = len({tuple(alarm.columns[c][r] for c in z) for r in range(alarm.n)})
        realized += groups < radix
        above_cut += radix * alarm.cards[x] * alarm.cards[y] > 4 * alarm.n + 64
        sorted_z += radix > 4 * alarm.n + 64
    assert realized >= 10 and above_cut >= 5 and sorted_z >= 2
    assert {name for name, *_ in queries} == set(tables)


def test_statistics_bit_identical(tables, golden):
    queries = _queries(tables)
    assert sorted(golden) == sorted(_key(*q) for q in queries)
    for name, x, y, z in queries:
        got = _record(CiQuery(x, y, z, tables[name]))
        assert got == golden[_key(name, x, y, z)], _key(name, x, y, z)


def test_memoised_verdicts_bit_identical(tables, golden):
    # one test object per table and kind, queried in order: swaps and repeats
    # come from the memo and must still equal the direct statistics
    for kind in ("sci", "g2", "cmi"):
        testers = {name: make_test(t, kind, min_samples_per_dof=0.0) for name, t in tables.items()}
        for name, x, y, z in _queries(tables) * 2:
            verdict = testers[name](x, y, z)
            want = golden[_key(name, x, y, z)]
            if kind == "sci":
                assert verdict.statistic.hex() == want["sci"]
            elif kind == "g2":
                assert (verdict.statistic.hex(), verdict.p_value.hex()) == (want["g2"], want["g2_p"])
            else:
                assert verdict.statistic.hex() == want["cmi"]


@pytest.mark.parametrize("kind", ["sci", "g2", "cmi"])
def test_batched_verdicts_bit_identical(tables, golden, kind):
    # every query once more through many(), one batch per (table, x, z)
    batches: dict[tuple[str, int, tuple[int, ...]], list[int]] = {}
    for name, x, y, z in _queries(tables):
        batches.setdefault((name, x, z), []).append(y)
    testers = {name: make_test(t, kind, min_samples_per_dof=0.0) for name, t in tables.items()}
    for (name, x, z), ys in batches.items():
        for y, verdict in zip(ys, testers[name].many(x, ys, z)):
            want = golden[_key(name, x, y, z)]
            assert verdict.statistic.hex() == want[kind], _key(name, x, y, z)
            if kind == "g2":
                assert verdict.p_value.hex() == want["g2_p"], _key(name, x, y, z)
    assert sum(t.count for t in testers.values()) == len(_queries(tables))
    assert any(len(ys) > 1 for ys in batches.values())


def test_wide_batches_match_single_queries(tables):
    # each golden (x, z) on alarm against every other column at once: the
    # shared (x, z) margins must give what a fresh single query gives
    alarm = tables["alarm"]
    given = {(x, z) for name, x, _, z in _queries(tables) if name == "alarm"}
    for kind in ("sci", "g2", "cmi"):
        tester = make_test(alarm, kind)
        for x, z in sorted(given):
            ys = [y for y in range(alarm.m) if y != x and y not in z]
            for y, verdict in zip(ys, tester.many(x, ys, z)):
                q = CiQuery(x, y, z, alarm)
                if kind == "sci":
                    want = sci(q)
                elif kind == "g2":
                    want = g2_test(q)
                else:
                    want = make_test(alarm, "cmi")(x, y, z)
                assert (verdict.statistic.hex(), verdict.p_value, verdict.independent) == (
                    want.statistic.hex(), want.p_value, want.independent), (kind, x, y, z)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    tabs = _alarm_tables()
    record = {_key(*q): _record(CiQuery(q[1], q[2], q[3], tabs[q[0]])) for q in _queries(tabs)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} queries to {GOLDEN}")
