from pathlib import Path

import dataclasses
import functools

import numpy as np
import pytest

import climb.graph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from climb.bif import BayesNet, BifParseError, _tokenize, exact_joint, parse_bif, serialize_bif
from climb.netgen import alarm_network, blanket_demo_network, random_net

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

LOOP = """
network loop { }
variable A { type discrete [ 2 ] { x, y }; }
variable B { type discrete [ 2 ] { x, y }; }
probability ( A | B ) { ( x ) 0.5, 0.5; ( y ) 0.2, 0.8; }
probability ( B | A ) { ( x ) 0.5, 0.5; ( y ) 0.2, 0.8; }
"""

LOOP3 = """
network loop3 { }
variable A { type discrete [ 2 ] { x, y }; }
variable B { type discrete [ 2 ] { x, y }; }
variable C { type discrete [ 2 ] { x, y }; }
probability ( A | C ) { ( x ) 0.5, 0.5; ( y ) 0.2, 0.8; }
probability ( B | A ) { ( x ) 0.5, 0.5; ( y ) 0.2, 0.8; }
probability ( C | B ) { ( x ) 0.5, 0.5; ( y ) 0.2, 0.8; }
"""

# a variable whose two states share a label
REPEATED_LABEL = "variable A { type discrete [ 2 ] { x, x }; }\nprobability ( A ) { table 0.5, 0.5; }\n"


def _reference_tokenize(text):
    """The character-by-character tokenizer the regex one must reproduce."""
    punct = set("{}()[]|,;")
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == "/" and text[i : i + 2] == "//":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in punct:
            yield ch, line, col
            i += 1
            col += 1
        else:
            start = i
            start_col = col
            while i < n and not text[i].isspace() and text[i] not in punct and text[i : i + 2] != "//":
                i += 1
                col += 1
            yield text[start:i], line, start_col


_PIECES = list("{}()[]|,;") + [
    "network", "variable", "probability", "table", "x1", "0.25", "1e-3", "a/b",
    "/", "//", "\n", "\r\n", " ", "\t", "\x0b", "\x1c", "\xa0",
]


class TestTokenize:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
    @example("a\n\x0b\x1c\xa0b//c}\r\n\td/e/ ///\n;x//")
    def test_matches_reference(self, text):
        got = [(t.text, t.line, t.col) for t in _tokenize(text)]
        assert got == list(_reference_tokenize(text))


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
        with pytest.raises(BifParseError) as err:
            parse_bif(LOOP)
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

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            ("variable P { type discrete [ 2 ] { lo, hi",
             "unexpected end of input, expected category label or '}'", 1, 40),
            (CHILD.split("probability ( Q")[0] + "probability ( Q | P,",
             "unexpected end of input, expected parent name", 6, 20),
            (CHILD.split("( lo )")[0] + "( lo, ", "unexpected end of input, expected parent value or ')'", 7, 7),
            (CHILD.split("0.5, 0.25, 0.25;")[0] + "0.5, 0.25", "unexpected end of input, expected number or ';'", 7, 15),
            (CHILD.replace("( lo )", "( lo, hi )"), "row for 'Q' lists more values than parents", 7, 9),
            # structure errors point at the token at fault
            (CHILD.replace("( Q | P )", "( Q | P, P )"), "parent 'P' listed twice for 'Q'", 6, 22),
            (CHILD.replace("( Q | P )", "( Q | Q )"), "self-loop on 'Q'", 6, 19),
            (CHILD + "variable B { type discrete [ 2 ] { u, v }; }\n", "no probability block for variable 'B'", 10, 10),
            (CHILD.replace("0.5, 0.25, 0.25", "1.5, -0.25, -0.25"), "negative probability -0.25", 7, 15),
            (LOOP, "parent structure has a cycle between 'A' and 'B'", 6, 19),
            (LOOP3, "parent structure has a cycle", 8, 19),
            (REPEATED_LABEL, "value 'x' listed twice for 'A'", 1, 39),
        ],
        ids=["categories", "parents", "row-values", "probabilities", "row-too-long",
             "duplicate-parent", "self-loop", "missing-block", "negative-value", "two-block-cycle",
             "three-block-cycle", "repeated-label"],
    )
    def test_item_list_errors_pinned(self, text, message, line, col):
        with pytest.raises(BifParseError) as err:
            parse_bif(text)
        assert str(err.value) == f"{message} (line {line}, column {col})"
        assert (err.value.line, err.value.col) == (line, col)

    def test_rows_normalized_within_tolerance(self):
        text = MINIMAL.replace("0.4, 0.6", "0.4000001, 0.6")
        net = parse_bif(text)
        assert net.cpts["A"].sum() == pytest.approx(1.0, abs=1e-12)


# each refusal of the parser, with the token it points at
_REFUSALS = {
    "not-a-number": (CHILD.replace("0.25, 0.75", "0.25, x"), "expected a number, found 'x'", 5, 33),
    "block-keyword": (CHILD + "varaible R { }\n",
                      "expected 'network', 'variable' or 'probability', found 'varaible'", 10, 1),
    "declared-twice": (CHILD.replace("variable Q", "variable P"), "variable 'P' declared twice", 4, 10),
    "cardinality-word": (CHILD.replace("[ 2 ]", "[ two ]"), "expected an integer cardinality, found 'two'", 3, 30),
    "cardinality-zero": (CHILD.replace("[ 2 ]", "[ 0 ]"), "cardinality must be >= 1", 3, 30),
    "label-count": (CHILD.replace("{ lo, hi }", "{ lo, hi, mid }"),
                    "variable 'P' declares 2 values but lists 3", 3, 10),
    "unknown-child": (CHILD.replace("( P )", "( R )"), "unknown variable 'R'", 5, 15),
    "duplicate-block": (CHILD + "probability ( P ) { table 0.5, 0.5; }\n",
                        "duplicate probability block for 'P'", 10, 15),
    "empty-parent-list": (CHILD.replace("( Q | P )", "( Q | )"), "empty parent list", 6, 13),
    "bar-or-paren": (CHILD.replace("( P )", "( P P )"), "expected '|' or ')', found 'P'", 5, 17),
    "unknown-parent-value": (CHILD.replace("( lo )", "( mid )"), "'mid' is not a value of 'P'", 7, 5),
    "short-row": (CHILD.replace("( lo )", "( )"), "row for 'Q' lists 0 parent values, expected 1", 7, 3),
    "probability-count": (CHILD.replace("0.5, 0.25, 0.25", "0.5, 0.5"),
                          "row for 'Q' lists 2 probabilities, expected 3", 7, 3),
    "duplicate-row": (CHILD.replace("( hi )", "( lo )"), "duplicate row for 'Q'", 8, 3),
    "block-body": (CHILD.replace("table 0.25", "tabel 0.25"), "expected 'table', '(' or '}', found 'tabel'", 5, 21),
}


@pytest.mark.parametrize("text, message, line, col", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_parse_refusal_pinned(text, message, line, col):
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "maker",
        # five parents, cardinalities 2-4: a CPT of 288 rows
        [blanket_demo_network, alarm_network, functools.partial(random_net, 12, 0.4, 5, card_range=(2, 4))],
        ids=["blanket_demo_network", "alarm_network", "random_net"],
    )
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
    @pytest.mark.parametrize(
        "row, accepted",
        # the tolerance is np.allclose's at atol=1e-9: |sum - 1| <= 1e-9 + 1e-5
        [([0.5, 0.5 + 1.0e-5], True), ([0.5, 0.5 + 1.1e-5], False), ([np.nan, 1.0], False)],
        ids=["sum-1+1.0e-5", "sum-1+1.1e-5", "nan-row"],
    )
    def test_row_sum_tolerance(self, row, accepted):
        make = functools.partial(BayesNet, "edge", ("A",), {"A": ("x", "y")}, {"A": ()})
        cpt = np.array([row])
        if accepted:
            make({"A": cpt})
        else:
            with pytest.raises(ValueError, match="CPT rows must sum to 1"):
                make({"A": cpt})

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


def _pair_net(parents, q_cpt=None):
    """P and Q of two values each, Q's parents as given."""
    rows = 2 ** len(parents["Q"])
    cpts = {"P": np.array([[0.5, 0.5]]), "Q": np.full((rows, 2), 0.5) if q_cpt is None else q_cpt}
    if parents["P"]:
        cpts["P"] = np.full((2, 2), 0.5)
    return BayesNet("pair", ("P", "Q"), {"P": ("x", "y"), "Q": ("x", "y")}, parents, cpts)


@pytest.mark.parametrize(
    "parents, q_cpt, message",
    [
        ({"P": (), "Q": ("P", "P")}, None, "parent 'P' listed twice for 'Q'"),
        ({"P": (), "Q": ("Z",)}, None, "parent 'Z' of 'Q' is not a node"),
        ({"P": (), "Q": ()}, np.array([[1.5, -0.5]]), "Q: negative probability"),
        ({"P": ("Q",), "Q": ("P",)}, None, "parent structure has a cycle between 'P' and 'Q'"),
    ],
    ids=["repeated-parent", "unknown-parent", "negative-probability", "two-node-cycle"],
)
def test_bayes_net_refusal_pinned(parents, q_cpt, message):
    with pytest.raises(ValueError) as err:
        _pair_net(parents, q_cpt)
    assert str(err.value) == message


def test_bayes_net_refuses_a_longer_cycle():
    cpt = np.full((2, 2), 0.5)
    with pytest.raises(ValueError) as err:
        BayesNet("loop3", ("A", "B", "C"), {v: ("x", "y") for v in "ABC"},
                 {"A": ("C",), "B": ("A",), "C": ("B",)}, {v: cpt for v in "ABC"})
    assert str(err.value) == "parent structure has a cycle"


_NOT_WORDS = {
    "empty": "",
    "space": "low value",
    "tab": "low\tvalue",
    "newline": "low\n",
    "no-break-space": "low\xa0value",
    **{f"punct-{c}": f"a{c}b" for c in "{}()[]|,;"},
    "comment": "a//b",
}


class TestSerializeRefusals:
    """``serialize_bif`` refuses every name that would not parse back as one word."""

    @pytest.mark.parametrize("bad", list(_NOT_WORDS.values()), ids=list(_NOT_WORDS))
    @pytest.mark.parametrize("where", ["network", "node", "label"])
    def test_name_refused(self, where, bad):
        net = parse_bif(CHILD)
        if where == "network":
            net, message = dataclasses.replace(net, name=bad), f"network name {bad!r} is not one BIF word"
        elif where == "node":
            net = BayesNet("pair", ("P", bad), {"P": net.labels["P"], bad: net.labels["Q"]},
                           {"P": (), bad: ("P",)}, {"P": net.cpts["P"], bad: net.cpts["Q"]})
            message = f"node {bad!r} is not one BIF word"
        else:
            net = dataclasses.replace(net, labels={**net.labels, "Q": ("a", bad, "c")})
            message = f"label {bad!r} of node 'Q' is not one BIF word"
        with pytest.raises(ValueError) as err:
            serialize_bif(net)
        assert str(err.value) == message

    @pytest.mark.parametrize("word", ["a/b", "x/", "/y", "0.5", "über", "table"])
    def test_odd_words_round_trip(self, word):
        net = parse_bif(CHILD)
        net = dataclasses.replace(net, name=word, labels={**net.labels, "P": (word, "hi")})
        again = parse_bif(serialize_bif(net))
        assert (again.name, again.labels) == (net.name, net.labels)


class TestExactJoint:
    def test_sums_to_one_and_matches_marginal(self):
        net = parse_bif(CHILD)
        joint, nodes = exact_joint(net)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        p_marginal = joint.sum(axis=nodes.index("Q"))
        assert np.allclose(p_marginal, [0.25, 0.75])


def test_bayes_net_refuses_a_repeated_label():
    # serialize_bif would write it, and parse_bif would refuse the text
    with pytest.raises(ValueError) as err:
        BayesNet("n", ("A",), {"A": ("x", "y", "x")}, {"A": ()}, {"A": np.full((1, 3), 1 / 3)})
    assert str(err.value) == "value 'x' listed twice for 'A'"


def test_integral_probabilities_round_trip():
    net = parse_bif(CHILD.replace("0.5, 0.25, 0.25", "1.0, 0.0, 0.0"))
    text = serialize_bif(net)
    assert "( lo ) 1.0, 0.0, 0.0;" in text
    assert np.array_equal(parse_bif(text).cpts["Q"], net.cpts["Q"])


def test_exact_joint_refuses_a_large_network():
    nodes = tuple(f"X{i}" for i in range(21))  # 2^21 > 2,000,000 joint states
    net = BayesNet("wide", nodes, {v: ("a", "b") for v in nodes}, {v: () for v in nodes},
                   {v: np.array([[0.5, 0.5]]) for v in nodes})
    with pytest.raises(ValueError, match="^joint distribution too large to enumerate$"):
        exact_joint(net)


class TestLongChain:
    """A directed path parses in time linear in its length, whatever the block order."""

    N = 5000

    @pytest.fixture(scope="class")
    def chain(self):
        nodes = tuple(f"X{i}" for i in range(self.N))
        net = BayesNet("chain", nodes, {v: ("a", "b") for v in nodes},
                       {v: nodes[i - 1:i] for i, v in enumerate(nodes)},
                       {v: np.array([[0.7, 0.3], [0.2, 0.8]]) if i else np.array([[0.5, 0.5]])
                        for i, v in enumerate(nodes)})
        return net, serialize_bif(net)

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_parses_with_a_bounded_walk(self, chain, order, monkeypatch):
        net, text = chain
        if order == "reversed":
            head, *blocks = text.split("probability ")
            text = head + "".join("probability " + b for b in reversed(blocks))
        steps = 0
        walk = climb.graph._walk

        def counting(starts, step):
            nonlocal steps
            for v in walk(starts, step):
                steps += 1
                yield v

        monkeypatch.setattr(climb.graph, "_walk", counting)
        again = parse_bif(text)
        assert again.parents == net.parents
        assert 0 < steps <= 4 * self.N
