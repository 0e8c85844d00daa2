import csv
import json

import numpy as np
import pytest

from climb.csvio import domains_path, load_csv, write_csv
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
