import json
import logging
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climb.citests import make_test
from climb.graph import (
    PDag,
    _apply_closure_rules,
    _reaches,
    _walk,
    climb_orient,
    d_separated,
    directed_edge_metrics,
    mb_set_metrics,
    orient_cpdag,
    pc_stable_skeleton,
    set_metrics,
)
from climb.netgen import random_net
from climb.nml import conditional_sc, stochastic_complexity
from climb.sampling import SampleSpec, forward_sample
from climb.table import CategoricalTable


def fixture_dag():
    g = PDag(("F", "D", "E", "T"))
    g.add_directed("F", "D")
    g.add_directed("F", "E")
    g.add_directed("D", "T")
    g.add_directed("E", "T")
    return g


def _reference_acyclic(g: PDag) -> bool:
    """Colouring DFS over the directed edges: grey on entry, black on exit."""
    state: dict[str, int] = {}

    def visit(v: str) -> bool:
        state[v] = 1
        for w in g.children(v):
            s = state.get(w, 0)
            if s == 1 or (s == 0 and not visit(w)):
                return False
        state[v] = 2
        return True

    return all(state.get(v, 0) == 2 or visit(v) for v in g.nodes)


class TestPDag:
    def test_no_self_loops(self):
        g = PDag(("a", "b"))
        with pytest.raises(ValueError):
            g.add_directed("a", "a")

    def test_one_edge_per_pair(self):
        g = PDag(("a", "b"))
        g.add_directed("a", "b")
        with pytest.raises(ValueError):
            g.add_undirected("a", "b")

    def test_orient_undirected(self):
        g = PDag(("a", "b"))
        g.add_undirected("a", "b")
        g.orient("a", "b")
        assert g.has_directed("a", "b")
        assert not g.undirected_edges()

    def test_acyclicity(self):
        g = PDag(("a", "b", "c"))
        g.add_directed("a", "b")
        g.add_directed("b", "c")
        assert g.is_acyclic()
        g.add_directed("c", "a")
        assert not g.is_acyclic()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.lists(st.sampled_from([None, "fwd", "back", "und"]), max_size=28), st.booleans())
    def test_is_acyclic_matches_reference(self, n, marks, forward_only):
        # marks go to the node pairs in order; pairs past the list get no edge
        g = PDag(tuple(f"v{i}" for i in range(n)))
        for (a, b), mark in zip(combinations(g.nodes, 2), marks):
            if mark == "back" and not forward_only:
                g.add_directed(b, a)
            elif mark == "und":
                g.add_undirected(a, b)
            elif mark is not None:
                g.add_directed(a, b)
        assert g.is_acyclic() == _reference_acyclic(g)
        assert g.is_acyclic() or not forward_only

    def test_topological_order(self):
        g = fixture_dag()
        order = g.topological_order()
        assert order.index("F") < order.index("D") < order.index("T")
        assert order.index("F") < order.index("E") < order.index("T")

    def test_json_round_trip(self):
        g = fixture_dag()
        g2 = PDag(("F", "D", "E", "T"))
        obj = json.loads(json.dumps(g.to_json_obj()))
        assert PDag.from_json_obj(obj) == g
        assert PDag.from_json_obj(obj) != g2

    def test_json_schema_fields(self):
        g = PDag(("a", "b", "c"))
        g.add_directed("a", "b")
        g.add_undirected("b", "c")
        obj = g.to_json_obj()
        assert obj["nodes"] == ["a", "b", "c"]
        assert {"a": "a", "b": "b", "directed": True} in obj["edges"]
        assert {"a": "b", "b": "c", "directed": False} in obj["edges"]

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"nodes": {"a": 1}, "edges": []}, "partial DAG field 'nodes' must be a JSON array, got object"),
            ({"nodes": ["a", 2], "edges": []}, "partial DAG node 1 must be a JSON string, got number"),
            ({"nodes": ["a", "b"]}, "partial DAG has no 'edges' field"),
            ({"nodes": ["a", "b"], "edges": [["a", "b"]]}, "partial DAG edge 0 must be a JSON object, got array"),
            ({"nodes": ["a", "b"], "edges": [{"a": "a", "b": None, "directed": True}]},
             "partial DAG edge 0 field 'b' must be a JSON string, got null"),
            ({"nodes": ["a", "b"], "edges": [{"a": "a", "b": "b", "directed": 1}]},
             "partial DAG edge 0 field 'directed' must be a JSON boolean, got number"),
        ],
        ids=["nodes-object", "node-number", "no-edges", "edge-array", "end-null", "directed-number"],
    )
    def test_json_ill_typed_field_named(self, obj, message):
        with pytest.raises(ValueError) as err:
            PDag.from_json_obj(obj)
        assert str(err.value) == message


class TestDSeparation:
    def test_fixture_graph(self):
        g = fixture_dag()
        assert d_separated(g, "F", "T", ("D", "E"))
        assert not d_separated(g, "D", "T", ("E", "F"))
        assert not d_separated(g, "E", "T", ("D", "F"))

    def test_two_node_edge(self):
        g = PDag(("x", "y"))
        g.add_directed("x", "y")
        assert not d_separated(g, "x", "y", ())

    def test_collider_opens_on_conditioning(self):
        g = PDag(("a", "b", "c", "d"))
        g.add_directed("a", "c")
        g.add_directed("b", "c")
        g.add_directed("c", "d")
        assert d_separated(g, "a", "b", ())
        assert not d_separated(g, "a", "b", ("c",))
        assert not d_separated(g, "a", "b", ("d",))  # descendant of the collider

    def test_requires_directed_graph(self):
        g = PDag(("a", "b"))
        g.add_undirected("a", "b")
        with pytest.raises(ValueError):
            d_separated(g, "a", "b", ())


class TestSkeleton:
    def sample(self, seed=1, n=10000):
        net = random_net(4, 0.0, seed=seed)
        # chain A -> B -> C plus an isolated column
        cpts = {
            "X0": np.array([[0.35, 0.65]]),
            "X1": np.array([[0.85, 0.15], [0.2, 0.8]]),
            "X2": np.array([[0.9, 0.1], [0.25, 0.75]]),
            "X3": np.array([[0.5, 0.5]]),
        }
        from climb.bif import BayesNet

        chain = BayesNet(
            "chain",
            ("X0", "X1", "X2", "X3"),
            {v: ("0", "1") for v in ("X0", "X1", "X2", "X3")},
            {"X0": (), "X1": ("X0",), "X2": ("X1",), "X3": ()},
            cpts,
        )
        return forward_sample(chain, SampleSpec(n, 0.0, seed))

    def test_chain_recovered_with_sepset(self):
        data = self.sample()
        test = make_test(data, "sci")
        skel, seps = pc_stable_skeleton(data, test, max_cond=2)
        assert skel.undirected_edges() == [("X0", "X1"), ("X1", "X2")]
        assert seps[frozenset(("X0", "X2"))] == frozenset(("X1",))

    def test_negative_max_cond_rejected(self):
        data = self.sample(n=200)
        test = make_test(data, "sci")
        with pytest.raises(ValueError, match="max_cond"):
            pc_stable_skeleton(data, test, max_cond=-1)
        assert test.count == 0

    def test_test_of_another_table_refused(self):
        data, other = self.sample(n=200), self.sample(seed=2, n=200)
        test = make_test(other, "sci")
        with pytest.raises(ValueError, match="bound to another table"):
            pc_stable_skeleton(data, test)
        assert test.count == 0

    def test_independent_columns_empty_graph(self):
        rng = np.random.default_rng(8)
        cols = [(f"c{i}", rng.integers(0, 3, 4000), 3) for i in range(4)]
        data = CategoricalTable.from_columns(cols)
        skel, seps = pc_stable_skeleton(data, make_test(data, "sci"), max_cond=2)
        assert not skel.undirected_edges()
        assert all(s == frozenset() for s in seps.values())

    def test_column_permutation_invariance(self):
        data = self.sample(seed=5)
        perm = [2, 0, 3, 1]
        shuffled = CategoricalTable(
            tuple(data.names[i] for i in perm),
            tuple(data.columns[i] for i in perm),
            tuple(data.cards[i] for i in perm),
        )
        s1, seps1 = pc_stable_skeleton(data, make_test(data, "sci"), 2)
        s2, seps2 = pc_stable_skeleton(shuffled, make_test(shuffled, "sci"), 2)
        assert s1 == s2
        assert seps1 == seps2


def reference_skeleton(table, test, max_cond):
    """Stable PC with one test call per query, in pair order (the unbatched loop)."""
    names = table.names
    idx = {v: i for i, v in enumerate(names)}
    g = PDag(names)
    for a, b in combinations(sorted(names), 2):
        g.add_undirected(a, b)
    sepsets = {}
    for level in range(max_cond + 1):
        adj = {v: sorted(g.adjacent(v)) for v in names}
        if all(len(adj[v]) - 1 < level for v in names):
            break
        to_remove = []
        for a, b in g.undirected_edges():
            best = None
            seen = set()
            for base in (a, b):
                other = b if base == a else a
                pool = [v for v in adj[base] if v != other]
                for zs in combinations(pool, level):
                    if frozenset(zs) in seen:
                        continue
                    seen.add(frozenset(zs))
                    verdict = test(idx[base], idx[other], tuple(idx[v] for v in zs))
                    if verdict.independent:
                        cand = (test.strength(verdict), tuple(sorted(zs)))
                        if best is None or cand < best:
                            best = cand
            if best is not None:
                to_remove.append((a, b, frozenset(best[1])))
        for a, b, sep in to_remove:
            g.remove_edge(a, b)
            sepsets[frozenset((a, b))] = sep
    return g, sepsets


class TestBatchedSkeleton:
    """The level-wise batches ask exactly the queries of the per-query loop."""

    @pytest.mark.parametrize("kind", ["sci", "g2"])
    @pytest.mark.parametrize("net_seed, n", [(1, 300), (2, 1000), (3, 2000), (4, 600)])
    def test_equals_reference_loop(self, kind, net_seed, n):
        net = random_net(14, 0.2, net_seed, card_range=(2, 4))
        data = forward_sample(net, SampleSpec(n, 0.0, net_seed))
        batched, reference = make_test(data, kind), make_test(data, kind)
        skel, seps = pc_stable_skeleton(data, batched, 3)
        ref_skel, ref_seps = reference_skeleton(data, reference, 3)
        assert skel == ref_skel
        assert seps == ref_seps
        assert (batched.count, batched.evaluated) == (reference.count, reference.evaluated)
        assert batched.count > 0


class TestOrientation:
    def test_collider_oriented(self):
        data_net = random_net(3, 0.0, seed=2)
        from climb.bif import BayesNet

        collider = BayesNet(
            "collider",
            ("A", "B", "C"),
            {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1", "2")},
            {"A": (), "B": (), "C": ("A", "B")},
            {
                "A": np.array([[0.4, 0.6]]),
                "B": np.array([[0.7, 0.3]]),
                "C": np.array(
                    [
                        [0.8, 0.1, 0.1],
                        [0.1, 0.8, 0.1],
                        [0.1, 0.1, 0.8],
                        [0.3, 0.1, 0.6],
                    ]
                ),
            },
        )
        data = forward_sample(collider, SampleSpec(8000, 0.0, 3))
        skel, seps = pc_stable_skeleton(data, make_test(data, "sci"), 2)
        cpdag = orient_cpdag(skel, seps)
        assert cpdag.has_directed("A", "C")
        assert cpdag.has_directed("B", "C")
        assert not cpdag.has_edge("A", "B")

    def test_chain_stays_undirected(self):
        skel = PDag(("a", "b", "c"))
        skel.add_undirected("a", "b")
        skel.add_undirected("b", "c")
        seps = {frozenset(("a", "c")): frozenset(("b",))}
        cpdag = orient_cpdag(skel, seps)
        assert cpdag.undirected_edges() == [("a", "b"), ("b", "c")]

    def test_empty_graph_unchanged(self):
        skel = PDag(("a", "b"))
        assert orient_cpdag(skel, {}) == skel

    def test_meek_rule_one_propagates(self):
        skel = PDag(("a", "b", "c", "d"))
        for pair in (("a", "c"), ("b", "c"), ("c", "d")):
            skel.add_undirected(*pair)
        seps = {
            frozenset(("a", "b")): frozenset(),
            frozenset(("a", "d")): frozenset(("c",)),
            frozenset(("b", "d")): frozenset(("c",)),
        }
        cpdag = orient_cpdag(skel, seps)
        assert cpdag.has_directed("a", "c")
        assert cpdag.has_directed("b", "c")
        assert cpdag.has_directed("c", "d")  # rule one: no fresh collider at c

    def test_adjacencies_preserved(self):
        skel = PDag(("a", "b", "c"))
        skel.add_undirected("a", "c")
        skel.add_undirected("b", "c")
        cpdag = orient_cpdag(skel, {frozenset(("a", "b")): frozenset()})
        pairs = {frozenset(e) for e in cpdag.directed_edges()} | {
            frozenset(e) for e in cpdag.undirected_edges()
        }
        assert pairs == {frozenset(("a", "c")), frozenset(("b", "c"))}


def reference_climb_orient(pdag, table):
    """``climb_orient``'s pair loop re-sorting the undirected edges before every pick.

    Every neighbourhood is priced afresh by ``score_partition``, with no
    terms kept between calls.
    """
    from climb.blanket import Partition, score_partition

    idx = {v: i for i, v in enumerate(table.names)}
    work = pdag.copy()

    def cost(v, parents, children):
        part = Partition(frozenset(idx[p] for p in parents), frozenset(idx[c] for c in children))
        return score_partition(table, idx[v], part)

    while work.undirected_edges():
        a, b = work.undirected_edges()[0]
        pa_a, ch_a = work.parents(a) | work.undirected_neighbors(a) - {b}, work.children(a)
        pa_b, ch_b = work.parents(b) | work.undirected_neighbors(b) - {a}, work.children(b)
        b_to_a = cost(a, pa_a | {b}, ch_a) + cost(b, pa_b, ch_b | {a})
        if b_to_a < cost(a, pa_a, ch_a | {b}) + cost(b, pa_b | {a}, ch_b):
            work.orient(b, a)
        else:
            work.orient(a, b)
    return work


class TestClimbOrient:
    def two_node_data(self, n=20000, seed=4):
        from climb.bif import BayesNet

        net = BayesNet(
            "pair",
            ("A", "B"),
            {"A": ("0", "1"), "B": ("0", "1", "2", "3")},
            {"A": (), "B": ("A",)},
            {
                "A": np.array([[0.5, 0.5]]),
                "B": np.array([[0.7, 0.1, 0.1, 0.1], [0.05, 0.15, 0.35, 0.45]]),
            },
        )
        return forward_sample(net, SampleSpec(n, 0.0, seed))

    def test_fully_directed_input_unchanged(self):
        data = self.two_node_data(1000)
        g = PDag(("A", "B"))
        g.add_directed("B", "A")
        assert climb_orient(g, data) == g

    def test_single_edge_oriented_to_cheaper_direction(self):
        from climb.blanket import Partition, score_partition

        data = self.two_node_data()
        g = PDag(("A", "B"))
        g.add_undirected("A", "B")
        full = climb_orient(g, data)
        assert not full.undirected_edges()
        ia, ib = data.index_of("A"), data.index_of("B")
        cost_ab = score_partition(data, ia, Partition(frozenset(), frozenset({ib}))) + score_partition(
            data, ib, Partition(frozenset({ia}), frozenset())
        )
        cost_ba = score_partition(data, ia, Partition(frozenset({ib}), frozenset())) + score_partition(
            data, ib, Partition(frozenset(), frozenset({ia}))
        )
        expected = ("A", "B") if cost_ab <= cost_ba else ("B", "A")
        assert full.has_directed(*expected)

    def test_edge_list_permutation_invariant(self):
        rng = np.random.default_rng(9)
        data = CategoricalTable.from_columns(
            [(v, rng.integers(0, 2, 500), 2) for v in ("a", "b", "c")]
        )
        g1 = PDag(("a", "b", "c"))
        g1.add_undirected("a", "b")
        g1.add_undirected("b", "c")
        g2 = PDag(("a", "b", "c"))
        g2.add_undirected("b", "c")
        g2.add_undirected("a", "b")
        assert climb_orient(g1, data) == climb_orient(g2, data)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_equals_resorting_reference(self, seed):
        # random marks on random pairs, nodes listed in a shuffled order
        net = random_net(9, 0.4, seed, card_range=(2, 3))
        data = forward_sample(net, SampleSpec(800, 0.0, seed))
        rng = np.random.default_rng(seed)
        g = PDag(rng.permutation(net.nodes).tolist())
        for a, b in combinations(net.nodes, 2):
            mark = rng.choice(["none", "none", "fwd", "back", "und", "und"])
            if mark == "und":
                g.add_undirected(a, b)
            elif mark != "none":
                g.add_directed(*((a, b) if mark == "fwd" else (b, a)))
        assert len(g.undirected_edges()) >= 5
        assert climb_orient(g, data) == reference_climb_orient(g, data)

    @pytest.mark.parametrize("kind", ["sci", "g2"])
    @pytest.mark.parametrize("seed", [4, 6])
    def test_pc_output_equals_resorting_reference(self, kind, seed):
        # what `climb pc` hands to `climb orient`: colliders directed, the rest
        # undirected, so terms are shared between pairs and with the directed part
        net = random_net(12, 0.3, seed, card_range=(2, 3))
        data = forward_sample(net, SampleSpec(1500, 0.0, seed))
        skel, seps = pc_stable_skeleton(data, make_test(data, kind), max_cond=2)
        cpdag = orient_cpdag(skel, seps)
        assert len(cpdag.undirected_edges()) >= 2 and cpdag.directed_edges()
        assert climb_orient(cpdag, data) == reference_climb_orient(cpdag, data)

    def test_prices_each_term_once(self, monkeypatch):
        # "a" is a parentless target (a -> b priced from a's side) and an
        # unconditioned parent (the same pair priced from b's side): one term
        from climb import blanket

        rng = np.random.default_rng(5)
        data = CategoricalTable.from_columns([(v, rng.integers(0, k, 400), k) for v, k in zip("abcd", (2, 3, 2, 3))])
        g = PDag(("a", "b", "c", "d"))
        g.add_undirected("a", "b")
        g.add_undirected("b", "c")
        g.add_directed("d", "c")
        priced = []

        def column(x):
            return next(i for i, col in enumerate(data.columns) if col is x)

        def alone(x, card, regrets=None):
            priced.append((column(x), np.zeros(data.n, dtype=np.int64).tobytes()))
            return stochastic_complexity(x, card, regrets)

        def given(x, card, labels, regrets=None):
            priced.append((column(x), np.asarray(labels, dtype=np.int64).tobytes()))
            return conditional_sc(x, card, labels, regrets)

        monkeypatch.setattr(blanket, "stochastic_complexity", alone)
        monkeypatch.setattr(blanket, "conditional_sc", given)
        climb_orient(g, data)
        assert (column(data.columns[0]), np.zeros(data.n, dtype=np.int64).tobytes()) in priced
        assert len(priced) == len(set(priced))

    def test_directed_part_preserved(self):
        data = self.two_node_data(2000)
        g = PDag(("A", "B"))
        g.add_directed("A", "B")
        out = climb_orient(g, data)
        assert out.has_directed("A", "B")


class TestMetrics:
    def test_identity_graph_perfect(self):
        g = fixture_dag()
        assert directed_edge_metrics(g, g) == (1.0, 1.0, 1.0)

    def test_half_right(self):
        truth = PDag(("a", "b", "c"))
        truth.add_directed("a", "b")
        truth.add_directed("b", "c")
        pred = PDag(("a", "b", "c"))
        pred.add_directed("a", "b")
        pred.add_directed("c", "b")
        assert directed_edge_metrics(pred, truth) == (0.5, 0.5, 0.5)

    def test_empty_prediction(self):
        truth = PDag(("a", "b"))
        truth.add_directed("a", "b")
        pred = PDag(("a", "b"))
        assert directed_edge_metrics(pred, truth) == (0.0, 0.0, 0.0)

    def test_undirected_prediction_never_counts(self):
        truth = PDag(("a", "b"))
        truth.add_directed("a", "b")
        pred = PDag(("a", "b"))
        pred.add_undirected("a", "b")
        assert directed_edge_metrics(pred, truth) == (0.0, 0.0, 0.0)

    def test_edgeless_truth(self):
        truth = PDag(("a", "b"))
        pred = PDag(("a", "b"))
        pred.add_directed("a", "b")
        assert directed_edge_metrics(pred, truth) == (0.0, 0.0, 0.0)
        assert directed_edge_metrics(truth, truth) == (1.0, 1.0, 1.0)

    def test_set_metrics_conventions(self):
        assert set_metrics(set(), set()) == (1.0, 1.0, 1.0)
        assert set_metrics({"a"}, set()) == (0.0, 0.0, 0.0)
        p, r, _ = set_metrics({"a", "b", "c", "d", "e"}, {"a", "b", "c", "d"})
        assert (p, r) == (0.8, 1.0)
        assert set_metrics({"a"}, {"b"}) == (0.0, 0.0, 0.0)

    def test_mb_metrics_roles(self):
        truth = {"T": {"parents": {"p"}, "children": {"c"}, "spouses": set()}}
        right = {"T": {"parents": {"p"}, "children": {"c"}, "spouses": set()}}
        swapped = {"T": {"parents": {"c"}, "children": {"p"}, "spouses": set()}}
        undecided = {"T": {"parents": set(), "children": set(), "spouses": set(), "undecided": {"p", "c"}}}
        assert mb_set_metrics(right, truth, roles=True) == (1.0, 1.0, 1.0)
        assert mb_set_metrics(swapped, truth, roles=True) == (0.0, 0.0, 0.0)
        assert mb_set_metrics(undecided, truth, roles=True) == (0.0, 0.0, 0.0)

    def test_mb_metrics_union(self):
        truth = {"T": {"a", "b"}, "S": set()}
        pred = {"T": {"a"}, "S": set()}
        p, r, f = mb_set_metrics(pred, truth)
        assert p == pytest.approx(1.0)
        assert r == pytest.approx(0.75)  # average of 0.5 and 1.0


def _reference_order(g: PDag) -> list[str]:
    """Depth-first post-order reversed, roots and children in name order, by recursion."""
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(v: str) -> None:
        state[v] = 1
        for w in sorted(g.children(v)):
            s = state.get(w, 0)
            if s == 1:
                raise ValueError("graph has a directed cycle")
            if s == 0:
                visit(w)
        state[v] = 2
        order.append(v)

    for v in sorted(g.nodes):
        if state.get(v, 0) == 0:
            visit(v)
    return order[::-1]


def chain(n: int) -> PDag:
    """The directed path v0000 -> v0001 -> ... over n nodes, listed in reverse."""
    names = [f"v{i:04d}" for i in range(n)]
    g = PDag(names[::-1])
    for a, b in zip(names, names[1:]):
        g.add_directed(a, b)
    return g


class TestWalk:
    """``topological_order`` walks without recursion, in the recursive walk's order."""

    def test_long_chain_is_ordered(self):
        g = chain(5000)
        assert g.is_acyclic()
        assert g.topological_order() == sorted(g.nodes)

    def test_long_cycle_is_cyclic(self):
        g = chain(5000)
        g.add_directed("v4999", "v0000")
        assert not g.is_acyclic()
        with pytest.raises(ValueError, match="graph has a directed cycle"):
            g.topological_order()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.lists(st.sampled_from([None, "fwd", "back", "und"]), max_size=36),
           st.randoms(use_true_random=False))
    def test_order_matches_recursive_reference(self, n, marks, rng):
        # marks go to the node pairs in a shuffled order, the nodes are listed shuffled
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        rng.shuffle(pairs)
        rng.shuffle(names)
        g = PDag(names)
        for (a, b), mark in zip(pairs, marks):
            if mark == "back":
                g.add_directed(b, a)
            elif mark == "und":
                g.add_undirected(a, b)
            elif mark is not None:
                g.add_directed(a, b)
        try:
            expected = _reference_order(g)
        except ValueError:
            assert not g.is_acyclic()
            with pytest.raises(ValueError, match="graph has a directed cycle"):
                g.topological_order()
        else:
            assert g.topological_order() == expected


class TestRefusals:
    def test_duplicate_node(self):
        with pytest.raises(ValueError, match="^duplicate node names$"):
            PDag(("a", "b", "a"))

    @pytest.mark.parametrize("edge", [None, ("a", "b"), ("b", "a")], ids=["no-edge", "forward", "backward"])
    def test_orient_needs_an_undirected_edge(self, edge):
        g = PDag(("a", "b"))
        if edge:
            g.add_directed(*edge)
        with pytest.raises(ValueError, match="^no undirected edge 'a'-'b'$"):
            g.orient("a", "b")

    def test_metrics_need_one_node_set(self):
        with pytest.raises(ValueError, match="^graphs must share a node set$"):
            directed_edge_metrics(PDag(("a", "b")), PDag(("a", "c")))


def closure_result(undirected, directed):
    g = PDag(("w", "x", "y", "z"))
    for a, b in undirected:
        g.add_undirected(a, b)
    for a, b in directed:
        g.add_directed(a, b)
    _apply_closure_rules(g)
    return g


class TestClosureRules:
    """Meek's rules 3 and 4, each the only rule that fires on its graph."""

    def test_rule_three(self):
        # x - z, x - w, x - y and z -> y <- w with z, w non-adjacent
        g = closure_result([("x", "z"), ("x", "w"), ("x", "y")], [("z", "y"), ("w", "y")])
        assert g.directed_edges() == [("w", "y"), ("x", "y"), ("z", "y")]
        assert g.undirected_edges() == [("w", "x"), ("x", "z")]

    def test_rule_four(self):
        # x - z -> w -> y with x - w, x - y and z, y non-adjacent
        g = closure_result([("x", "z"), ("x", "w"), ("x", "y")], [("z", "w"), ("w", "y")])
        assert g.directed_edges() == [("w", "y"), ("x", "y"), ("z", "w")]
        assert g.undirected_edges() == [("w", "x"), ("x", "z")]


def _reference_ancestors(parents: dict, v: str) -> set[str]:
    """The ancestors of ``v`` under ``parents`` (absent nodes have none), by a plain worklist."""
    seen: set[str] = set()
    stack = list(parents.get(v, ()))
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(parents.get(u, ()))
    return seen


def _random_dag(n: int, p_edge: float, rng) -> PDag:
    """A DAG over n nodes listed in a shuffled order, edges along a random order."""
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    g = PDag(names)
    order = names[:]
    rng.shuffle(order)
    for i, j in combinations(range(n), 2):
        if rng.random() < p_edge:
            g.add_directed(order[i], order[j])
    return g


def _moral_separated(dag: PDag, x: str, y: str, z: set[str]) -> bool:
    """Lauritzen's criterion: z separates x and y in the moral graph of their ancestral set."""
    if x in z or y in z:
        return True
    parents = {v: dag.parents(v) for v in dag.nodes}
    keep = {x, y} | z
    for v in list(keep):
        keep |= _reference_ancestors(parents, v)
    links = {v: set() for v in keep}
    for v in keep:
        family = parents[v] | {v}
        for a, b in combinations(family, 2):
            links[a].add(b)
            links[b].add(a)
    reached, stack = {x}, [x]
    while stack:
        for w in links[stack.pop()] - z - reached:
            reached.add(w)
            stack.append(w)
    return y not in reached


class TestReachability:
    """``_walk`` and ``_reaches``, the walk that ``d_separated`` and the BIF parser share."""

    def test_walk_yields_starts_then_each_reached_node_once(self):
        step = {"a": ["b", "c"], "b": ["c", "a"], "c": ["a"], "d": ["a"]}.get
        got = list(_walk(["a", "d", "a"], step))
        assert got[:2] == ["a", "d"]
        assert sorted(got) == ["a", "b", "c", "d"]

    def test_walk_is_lazy(self):
        asked = []

        def step(v):
            asked.append(v)
            return [v + 1]

        walk = _walk([0], step)
        assert [next(walk) for _ in range(3)] == [0, 1, 2]
        assert asked == [0, 1]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9), st.data())
    def test_reaches_matches_ancestor_reference(self, n, data):
        # parent lists for a random subset of the nodes, cycles allowed
        names = [f"v{i}" for i in range(n)]
        listed = data.draw(st.lists(st.sampled_from(names), unique=True))
        parents = {v: data.draw(st.lists(st.sampled_from(names), unique=True)) for v in listed}
        children: dict[str, list[str]] = {}
        for c, ps in parents.items():
            for p in ps:
                children.setdefault(p, []).append(c)
        for a, b in combinations(names, 2):
            for x, y in ((a, b), (b, a)):
                got = _reaches(x, y, lambda v: children.get(v, ()), lambda v: parents.get(v, ()))
                assert got == (x in _reference_ancestors(parents, y))

    def test_a_node_reaches_itself(self):
        assert _reaches("a", "a", lambda v: (), lambda v: ())

    def test_reaches_stops_at_the_smaller_side(self):
        # a has 1,000 descendants and b none: the walk up from b ends at once
        asked = []

        def down(v):
            asked.append(v)
            return [v + 1] if v < 1000 else []

        assert not _reaches(0, -1, down, lambda v: ())
        assert len(asked) <= 1


class TestDSeparationChecks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 0.7), st.randoms(use_true_random=False))
    def test_matches_moral_graph_criterion(self, n, p_edge, rng):
        g = _random_dag(n, p_edge, rng)
        for _ in range(8):
            x, y = rng.choice(g.nodes), rng.choice(g.nodes)
            z = set(rng.sample(g.nodes, rng.randint(0, n)))
            assert d_separated(g, x, y, z) == _moral_separated(g, x, y, z), (x, y, z)

    @pytest.mark.parametrize("args", [("Q", "T", ()), ("F", "Q", ()), ("F", "T", ("D", "Q"))],
                             ids=["x", "y", "z"])
    def test_unknown_node_refused(self, args):
        with pytest.raises(ValueError, match="^'Q' is not a node of the graph$"):
            d_separated(fixture_dag(), *args)


class TestDunder:
    def test_eq_against_another_type(self):
        g = PDag(("a",))
        assert g.__eq__("a") is NotImplemented
        assert g != "a"

    def test_repr_counts(self):
        g = PDag(("a", "b", "c"))
        g.add_directed("a", "b")
        g.add_undirected("b", "c")
        assert repr(g) == "PDag(3 nodes, 1 directed, 1 undirected)"
