from pathlib import Path

import numpy as np
import pytest

from climb.bif import BayesNet, BifParseError, exact_joint, parse_bif, serialize_bif
from climb.netgen import alarm_network, blanket_demo_network

MINIMAL = """
network tiny {
}
variable A {
  type discrete [ 2 ] { yes, no };
}
probability ( A ) {
  table 0.4, 0.6;
}
"""

CHILD = """
network pair { }
variable P { type discrete [ 2 ] { lo, hi }; }
variable Q { type discrete [ 3 ] { a, b, c }; }
probability ( P ) { table 0.25, 0.75; }
probability ( Q | P ) {
  ( lo ) 0.5, 0.25, 0.25;
  ( hi ) 0.1, 0.2, 0.7;
}
"""


class TestParse:
    def test_minimal_network(self):
        net = parse_bif(MINIMAL)
        assert net.nodes == ("A",)
        assert net.labels["A"] == ("yes", "no")
        assert np.allclose(net.cpts["A"], [[0.4, 0.6]])

    def test_child_rows_indexed_by_config(self):
        net = parse_bif(CHILD)
        assert net.parents["Q"] == ("P",)
        assert np.allclose(net.cpts["Q"][0], [0.5, 0.25, 0.25])
        assert np.allclose(net.cpts["Q"][1], [0.1, 0.2, 0.7])

    def test_comments_ignored(self):
        net = parse_bif("// header\n" + MINIMAL.replace("table", "// x\n  table"))
        assert net.nodes == ("A",)

    def test_missing_brace_reports_position(self):
        bad = MINIMAL.replace("probability ( A ) {", "probability ( A ) ")
        with pytest.raises(BifParseError) as err:
            parse_bif(bad)
        assert err.value.line >= 1
        assert "line" in str(err.value)

    def test_unknown_variable(self):
        bad = CHILD.replace("( Q | P )", "( Q | Z )")
        with pytest.raises(BifParseError) as err:
            parse_bif(bad)
        assert "Z" in str(err.value)

    def test_missing_config_row(self):
        bad = CHILD.replace("( hi ) 0.1, 0.2, 0.7;\n", "")
        with pytest.raises(BifParseError) as err:
            parse_bif(bad)
        assert "covers" in str(err.value)

    def test_bad_probability_sum(self):
        bad = CHILD.replace("0.1, 0.2, 0.7", "0.1, 0.2, 0.8")
        with pytest.raises(BifParseError) as err:
            parse_bif(bad)
        assert "sums" in str(err.value)

    def test_wrong_value_count(self):
        bad = MINIMAL.replace("0.4, 0.6", "0.4, 0.3, 0.3")
        with pytest.raises(BifParseError):
            parse_bif(bad)

    def test_cycle_rejected(self):
        text = """
network loop { }
variable A { type discrete [ 2 ] { x, y }; }
variable B { type discrete [ 2 ] { x, y }; }
probability ( A | B ) { ( x ) 0.5, 0.5; ( y ) 0.2, 0.8; }
probability ( B | A ) { ( x ) 0.5, 0.5; ( y ) 0.2, 0.8; }
"""
        with pytest.raises(BifParseError) as err:
            parse_bif(text)
        assert "cycle" in str(err.value)

    def test_missing_cpt_block(self):
        text = MINIMAL + "variable B { type discrete [ 2 ] { u, v }; }\n"
        with pytest.raises(BifParseError) as err:
            parse_bif(text)
        assert "B" in str(err.value)

    def test_flat_table_with_parents(self):
        text = CHILD.replace(
            "( lo ) 0.5, 0.25, 0.25;\n  ( hi ) 0.1, 0.2, 0.7;",
            "table 0.5, 0.25, 0.25, 0.1, 0.2, 0.7;",
        )
        net = parse_bif(text)
        assert np.allclose(net.cpts["Q"], [[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])

    def test_rows_normalized_within_tolerance(self):
        text = MINIMAL.replace("0.4, 0.6", "0.4000001, 0.6")
        net = parse_bif(text)
        assert net.cpts["A"].sum() == pytest.approx(1.0, abs=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("maker", [blanket_demo_network, alarm_network])
    def test_serialize_parse_identity(self, maker):
        net = maker()
        again = parse_bif(serialize_bif(net))
        assert again.nodes == net.nodes
        assert again.labels == net.labels
        assert again.parents == net.parents
        for v in net.nodes:
            assert np.allclose(again.cpts[v], net.cpts[v], atol=1e-12)

    @pytest.mark.parametrize("maker", [blanket_demo_network, alarm_network])
    def test_bundled_file_matches_generator(self, maker):
        # the benchmark parses networks/alarm.bif; scripts/make_networks.py writes both
        net = maker()
        bundled = Path(__file__).resolve().parents[1] / "networks" / f"{net.name}.bif"
        assert bundled.read_text() == serialize_bif(net)

    def test_alarm_size(self):
        net = alarm_network()
        assert len(net.nodes) == 37
        assert sum(len(p) for p in net.parents.values()) == 46
        assert parse_bif(serialize_bif(net)).nodes == net.nodes


class TestBayesNetValidation:
    def test_row_sums_checked(self):
        with pytest.raises(ValueError):
            BayesNet(
                "bad",
                ("A",),
                {"A": ("x", "y")},
                {"A": ()},
                {"A": np.array([[0.5, 0.6]])},
            )

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            BayesNet(
                "bad",
                ("A",),
                {"A": ("x", "y")},
                {"A": ()},
                {"A": np.array([[0.5, 0.25, 0.25]])},
            )


class TestExactJoint:
    def test_sums_to_one_and_matches_marginal(self):
        net = parse_bif(CHILD)
        joint, nodes = exact_joint(net)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        p_marginal = joint.sum(axis=nodes.index("Q"))
        assert np.allclose(p_marginal, [0.25, 0.75])
