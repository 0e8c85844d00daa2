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
