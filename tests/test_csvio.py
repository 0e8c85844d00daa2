import csv
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climb import csvio
from climb.csvio import _read_domains, domains_path, load_csv, write_csv
from climb.table import CategoricalTable


class TestLoadCsv:
    def test_first_appearance_coding(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c\na\nb\na\n")
        t = load_csv(p)
        assert t.columns[0].tolist() == [0, 1, 0]
        assert t.cards == (2,)

    def test_sidecar_declares_wider_domain(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c\nx\ny\n")
        domains_path(p).write_text(json.dumps({"c": ["w", "x", "y", "z"]}))
        t = load_csv(p)
        assert t.cards == (4,)
        assert t.columns[0].tolist() == [1, 2]

    def test_value_outside_declared_domain(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("c\nq\n")
        domains_path(p).write_text(json.dumps({"c": ["a", "b"]}))
        with pytest.raises(ValueError):
            load_csv(p)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError) as err:
            load_csv(p)
        assert "row 3" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            load_csv(p)


class TestRoundTrip:
    def test_two_by_two(self, tmp_path):
        t = CategoricalTable.from_columns([("a", [0, 1], 2), ("b", [1, 0], 2)])
        p = tmp_path / "t.csv"
        write_csv(t, p)
        back = load_csv(p)
        assert back.names == t.names
        assert back.cards == t.cards
        assert all(np.array_equal(x, y) for x, y in zip(back.columns, t.columns))

    def test_unobserved_categories_survive(self, tmp_path):
        t = CategoricalTable.from_columns([("a", [0, 0, 1], 4)])
        p = tmp_path / "t.csv"
        write_csv(t, p)
        back = load_csv(p)
        assert back.cards == (4,)
        assert back.columns[0].tolist() == [0, 0, 1]

    def test_custom_labels(self, tmp_path):
        t = CategoricalTable.from_columns([("a", [0, 1, 0], 2)])
        p = tmp_path / "t.csv"
        write_csv(t, p, labels={"a": ["low", "high"]})
        text = p.read_text()
        assert "low" in text and "high" in text
        back = load_csv(p)
        assert back.columns[0].tolist() == [0, 1, 0]

    def test_label_count_must_match_cardinality(self, tmp_path):
        t = CategoricalTable.from_columns([("a", [0, 1], 3)])
        with pytest.raises(ValueError):
            write_csv(t, tmp_path / "t.csv", labels={"a": ["only", "two"]})

    @pytest.mark.parametrize(
        "name, labels, fault",
        [
            ("A", ["x", " x"], "' x'"),
            ("A", ["x\t", "y"], "'x\\t'"),
            ("A", ["x", "x"], "'x'"),
            ("A", ["x", 1], "1"),
            ("A ", ["x", "y"], "name"),
        ],
        ids=["leading-space", "trailing-tab", "repeated", "not-a-string", "name-with-space"],
    )
    def test_names_and_labels_that_would_not_load_back_are_refused(self, tmp_path, name, labels, fault):
        t = CategoricalTable.from_columns([(name, [0, 1], 2)])
        p = tmp_path / "t.csv"
        with pytest.raises(ValueError) as err:
            write_csv(t, p, labels={name: labels})
        assert repr(name) in str(err.value) and fault in str(err.value)
        assert list(tmp_path.iterdir()) == []


def _write_rowwise(table, path, labels):
    """The per-row writer ``write_csv`` replaced, kept as the byte reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for i in range(table.n):
            writer.writerow([labels[name][int(col[i])] for name, col in zip(table.names, table.columns)])


_AWKWARD = ["a,b", 'say "hi"', "two\nlines", "", "Zürich ✓"]


@pytest.mark.parametrize(
    "columns, labels",
    [
        ([("a", [0, 1, 2, 3, 4, 0], 5), ("b", [4, 3, 2, 1, 0, 4], 5)], {"a": _AWKWARD, "b": _AWKWARD[::-1]}),
        ([("only", [1, 0, 2, 2], 3)], {"only": ["", "x,y", 'q"']}),
        ([("only", [0, 1, 0], 2)], {}),
        ([("a", [], 2), ("b", [], 3)], {"a": ["", "é"]}),
    ],
    ids=["awkward-labels", "one-column-awkward", "one-column", "zero-rows"],
)
def test_columnwise_bytes_match_the_rowwise_writer(tmp_path, columns, labels):
    t = CategoricalTable.from_columns(columns)
    full = {name: labels.get(name, [str(i) for i in range(card)]) for name, card in zip(t.names, t.cards)}
    write_csv(t, tmp_path / "new.csv", labels=labels)
    _write_rowwise(t, tmp_path / "old.csv", full)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = load_csv(tmp_path / "new.csv")
    assert back.names == t.names and back.cards == t.cards
    assert all(np.array_equal(x, y) for x, y in zip(back.columns, t.columns))


def _load_whole(path):
    """The loader ``load_csv`` replaced, which held every field as a string at once; kept as the reference."""
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    names = [c.strip() for c in rows[0]]
    body = rows[1:]
    width = len(names)
    for lineno, row in enumerate(body, start=2):
        if len(row) != width:
            raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {width}")

    sidecar = domains_path(path)
    domains = _read_domains(sidecar) if sidecar.exists() else {}
    columns = []
    cards = []
    for j, name in enumerate(names):
        raw = [row[j].strip() for row in body]
        if name in domains:
            order = domains[name]
            mapping = {lab: i for i, lab in enumerate(order)}
            try:
                codes = np.array([mapping[v] for v in raw], dtype=np.int64)
            except KeyError as exc:
                raise ValueError(
                    f"{path}: column {name!r} holds {exc.args[0]!r}, absent from its declared domain"
                ) from None
            card = len(order)
        else:
            mapping = {}
            codes = np.empty(len(raw), dtype=np.int64)
            for i, v in enumerate(raw):
                codes[i] = mapping.setdefault(v, len(mapping))
            card = max(len(mapping), 1)
        columns.append(codes)
        cards.append(card)
    return CategoricalTable(tuple(names), tuple(columns), tuple(cards))


def _outcome(load, path):
    try:
        t = load(path)
    except Exception as exc:  # the refusal is part of what must match
        return type(exc), str(exc)
    return t.names, t.cards, [c.tolist() for c in t.columns]


_B = csvio._BLOCK
# a label that the writer must quote, placed where a block ends and the next begins
_STRADDLER = "q,\n r"


@st.composite
def _csv_files(draw):
    """Header, body rows and an optional sidecar, longer than one block unless header-only."""
    n = draw(st.one_of(st.sampled_from([0, 1, _B, 2 * _B]), st.integers(_B + 1, 3 * _B)))
    m = draw(st.integers(1, 4))
    label = st.text(alphabet="ab,\n\" é", max_size=4).filter(lambda t: t.strip() == t)
    pools = [draw(st.lists(label, min_size=1, max_size=5, unique=True)) for _ in range(m)]
    pools[0].append(_STRADDLER)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    late = draw(st.integers(0, max(n - 1, 0)))  # the first row of each column's last label
    codes = []
    for pool in pools:
        col = rng.integers(0, len(pool), size=n)
        col[:late][col[:late] == len(pool) - 1] = 0
        if n:
            col[late] = len(pool) - 1
        codes.append(col)
    for i in (_B - 1, _B, 2 * _B - 1, 2 * _B):
        if i < n:
            codes[0][i] = pools[0].index(_STRADDLER)
    pads = ["", " ", "  ", "\t"]
    names = [f"c{j}" for j in range(m)]
    header = [rng.choice(pads) + name + rng.choice(pads) for name in names]
    body = [
        [rng.choice(pads) + pools[j][codes[j][i]] + rng.choice(pads) for j in range(m)]
        for i in range(n)
    ]
    sidecar = None
    if draw(st.booleans()):
        sidecar = {}
        for j, pool in enumerate(pools):
            if draw(st.booleans()):
                declared = [lab for lab in pool if draw(st.integers(0, 19))] + ["u0", "u1"][: draw(st.integers(0, 2))]
                sidecar[names[j]] = [declared[k] for k in rng.permutation(len(declared))]
    return header, body, sidecar


def _write_file(path, header, body, sidecar):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(body)
    if sidecar is not None:
        domains_path(path).write_text(json.dumps(sidecar))


@settings(max_examples=60, deadline=None)
@given(data=_csv_files(), block=st.sampled_from([1, 3, _B]))
def test_blockwise_load_matches_the_whole_file_loader(tmp_path_factory, data, block):
    path = tmp_path_factory.mktemp("blocks") / "t.csv"
    _write_file(path, *data)
    with mock.patch.object(csvio, "_BLOCK", block):
        got = _outcome(load_csv, path)
    assert got == _outcome(_load_whole, path)


def _rows(n, fill="0,1", **at):
    """``n`` body rows of ``fill``, with the rows given by index (``r<i>=...``) replaced."""
    rows = [fill] * n
    for key, row in at.items():
        rows[int(key[1:])] = row
    return "\n".join(rows) + "\n"


# (csv text, sidecar text or None, exception type, message): where both faults lie in rows,
# the one refused lies in a later block than the one it takes precedence over
_PRECEDENCE = {
    "empty-before-sidecar": ("", "{", ValueError, "{path}: empty file"),
    "ragged-before-sidecar": (
        "a,b\n" + _rows(3 * _B, **{f"r{2 * _B + 5}": "1"}), "{", ValueError,
        f"{{path}}: row {2 * _B + 7} has 1 fields, expected 2"),
    "ragged-before-absent": (
        "a,b\n" + _rows(3 * _B, r1="7,1", **{f"r{2 * _B}": "0,1,2"}), json.dumps({"a": ["0", "1"]}), ValueError,
        f"{{path}}: row {2 * _B + 2} has 3 fields, expected 2"),
    "ragged-before-duplicate": (
        "a,a\n" + _rows(2 * _B, **{f"r{_B + 3}": ""}), None, ValueError,
        f"{{path}}: row {_B + 5} has 0 fields, expected 2"),
    "first-ragged-row": (
        "a,b\n" + _rows(3 * _B, **{f"r{_B + 1}": "1", f"r{2 * _B + 1}": "1,2,3"}), None, ValueError,
        f"{{path}}: row {_B + 3} has 1 fields, expected 2"),
    "sidecar-before-absent": (
        "a,b\n" + _rows(2 * _B, r0="9,1"), json.dumps({"a": ["0", "1"], "b": 5}), ValueError,
        "{sidecar}: column 'b' domain must be a JSON array, got number"),
    "sidecar-before-duplicate": ("a,a\n" + _rows(2 * _B), "[]", ValueError,
                                 "{sidecar}: the sidecar must be a JSON object, got array"),
    "absent-before-duplicate": (
        "a,a\n" + _rows(2 * _B, **{f"r{_B + 2}": " x ,1"}), json.dumps({"a": ["0", "1"]}), ValueError,
        "{path}: column 'a' holds 'x', absent from its declared domain"),
    "leftmost-absent-column": (
        "a,b\n" + _rows(3 * _B, r0="0,y", **{f"r{2 * _B + 1}": "x,1"}), json.dumps({"a": ["0"], "b": ["1"]}),
        ValueError, "{path}: column 'a' holds 'x', absent from its declared domain"),
    "first-absent-label": (
        "a,b\n" + _rows(3 * _B, **{f"r{_B}": "x,1", f"r{_B + 1}": "y,1", f"r{2 * _B}": "z,1"}),
        json.dumps({"a": ["0", "y", "z"]}), ValueError, "{path}: column 'a' holds 'x', absent from its declared domain"),
    "duplicate-names": ("a,a\n" + _rows(2 * _B), None, ValueError, "duplicate column names"),
    # a row that does not parse at all is refused before any row of the wrong width
    "unparseable-before-ragged": (
        "a,b\n" + _rows(3 * _B, r1="1", **{f"r{2 * _B}": "0," + "9" * (csv.field_size_limit() + 1)}), "{",
        csv.Error, f"field larger than field limit ({csv.field_size_limit()})"),
}


@pytest.mark.parametrize("load", [load_csv, _load_whole], ids=["blockwise", "whole-file"])
@pytest.mark.parametrize("case", list(_PRECEDENCE))
def test_refusal_precedence_pinned(tmp_path, load, case):
    text, sidecar, kind, message = _PRECEDENCE[case]
    path = tmp_path / "t.csv"
    path.write_text(text)
    if sidecar is not None:
        domains_path(path).write_text(sidecar)
    with pytest.raises(kind) as err:
        load(path)
    assert str(err.value) == message.format(path=path, sidecar=domains_path(path))


def test_load_peak_memory_is_bounded_by_the_codes(tmp_path):
    # multi-character labels: CPython caches one-character strings, which would hide a loader's copies
    n, m, card = 20_000, 30, 6
    rng = np.random.default_rng(3)
    t = CategoricalTable.from_columns([(f"c{j}", rng.integers(0, card, n), card) for j in range(m)])
    write_csv(t, tmp_path / "t.csv", labels={name: [f"s{i}" for i in range(card)] for name in t.names})
    tracemalloc.start()
    try:
        back = load_csv(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(x, y) for x, y in zip(back.columns, t.columns))
    assert peak < 3 * n * m * 8, f"peak {peak / (n * m * 8):.2f}x the codes' bytes"
    # the table takes the loader's columns over: a copy of them would add 1x
    assert peak < 1.8 * n * m * 8, f"peak {peak / (n * m * 8):.2f}x the codes' bytes"


def test_table_keeps_its_own_copy_of_a_callers_columns():
    col = np.array([0, 1, 1, 0])
    t = CategoricalTable(("a",), (col,), (2,))
    col[:] = 1
    assert t.columns[0].tolist() == [0, 1, 1, 0] and not t.columns[0].flags.writeable


@pytest.mark.parametrize(
    "names, columns, cards, message",
    [
        (("a", "b"), ([0, 1],), (2, 2), "names, columns and cards must have equal length"),
        (("a",), ([[0, 1]],), (2,), "column 'a': expected 1-d code vector"),
        (("a", "b"), ([0, 1], [0]), (2, 2), "columns differ in length"),
        (("a", "b"), ([0, 1], [0, 2]), (2, 2), "column 'b': code outside [0, 2)"),
        (("a",), ([0, 0],), (0,), "column 'a': cardinality must be >= 1"),
    ],
    ids=["lengths", "not-1d", "ragged", "code-outside", "card-below-1"],
)
def test_table_refusal_pinned(names, columns, cards, message):
    with pytest.raises(ValueError) as err:
        CategoricalTable(names, tuple(np.asarray(c) for c in columns), cards)
    assert str(err.value) == message
