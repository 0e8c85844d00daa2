from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from climb import blanket
from climb.bif import BayesNet
from climb.blanket import (
    Partition,
    _half_pc,
    _refined_terms,
    PartitionCapError,
    climb,
    find_best_partition,
    find_pc,
    pcmb,
    score_partition,
)
from climb.citests import make_test
from climb.netgen import alarm_network, blanket_demo_network, random_net
from climb.nml import RegretTable, conditional_sc, stochastic_complexity
from climb.sampling import SampleSpec, forward_sample
from climb.table import CategoricalTable, _compact, _countable, group_labels


def chain_net():
    # A -> T -> B with solid signal
    return BayesNet(
        "chain",
        ("A", "T", "B"),
        {v: ("0", "1", "2") for v in ("A", "T", "B")},
        {"A": (), "T": ("A",), "B": ("T",)},
        {
            "A": np.array([[0.5, 0.3, 0.2]]),
            "T": np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.15, 0.1, 0.75]]),
            "B": np.array([[0.75, 0.15, 0.1], [0.1, 0.8, 0.1], [0.2, 0.05, 0.75]]),
        },
    )


def vstructure_net():
    # T -> C <- S with a wide-domain child so the role split is decided by
    # the domain-size asymmetry of the regret terms
    rows = []
    rng = np.random.default_rng(12)
    for t in range(2):
        for s in range(2):
            peak = rng.permutation(4)
            row = np.full(4, 0.08)
            row[peak[t + s]] = 1.0 - 0.08 * 3
            rows.append(row)
    return BayesNet(
        "vstruct",
        ("T", "S", "C"),
        {"T": ("0", "1"), "S": ("0", "1"), "C": ("0", "1", "2", "3")},
        {"T": (), "S": (), "C": ("T", "S")},
        {
            "T": np.array([[0.55, 0.45]]),
            "S": np.array([[0.4, 0.6]]),
            "C": np.array(rows),
        },
    )


def _roles(res):
    return res.parents, res.children, res.spouses


class TestFindPc:
    def test_chain_neighbourhood(self):
        data = forward_sample(chain_net(), SampleSpec(10000, 0.0, 21))
        test = make_test(data, "sci")
        pc, seps = find_pc(data, data.index_of("T"), test)
        assert {data.names[i] for i in pc} == {"A", "B"}

    def test_isolated_target(self):
        rng = np.random.default_rng(6)
        data = CategoricalTable.from_columns(
            [(v, rng.integers(0, 3, 3000), 3) for v in ("T", "u", "w")]
        )
        pc, seps = find_pc(data, 0, make_test(data, "sci"))
        assert pc == frozenset()
        assert seps == {1: frozenset(), 2: frozenset()}

    def test_collider_parents_found_with_empty_sepset(self):
        data = forward_sample(vstructure_net(), SampleSpec(10000, 0.0, 22))
        test = make_test(data, "sci")
        it, si = data.index_of("T"), data.index_of("S")
        pc, seps = find_pc(data, it, test)
        assert {data.names[i] for i in pc} == {"C"}
        assert seps[si] == frozenset()

    def test_cache_reuses_results(self):
        # a repeat evaluates nothing, and counts as the rerun it stands for
        data = forward_sample(chain_net(), SampleSpec(4000, 0.0, 23))
        test = make_test(data, "sci")
        first = find_pc(data, 1, test)
        count, evaluated = test.count, test.evaluated
        assert find_pc(data, 1, test) == first
        assert (test.count, test.evaluated) == (2 * count, evaluated)

    def test_cache_keyed_by_max_cond(self):
        data = forward_sample(blanket_demo_network(), SampleSpec(3000, 0.0, 47))
        test = make_test(data, "sci")
        for t in range(data.m):
            climb(data, t, test, max_cond=0)
        for t in range(data.m):
            got = climb(data, t, test, max_cond=3)
            want = climb(data, t, make_test(data, "sci"), max_cond=3)
            assert _roles(got) == _roles(want)

    def test_searches_stay_with_their_test(self):
        # an SCI sweep first must not change what a G2 test finds afterwards;
        # the fresh G2 blankets come from an equal table of their own
        spec = SampleSpec(1000, 0.0, 3)
        data, fresh = forward_sample(alarm_network(), spec), forward_sample(alarm_network(), spec)
        want = [_roles(climb(fresh, t, make_test(fresh, "g2"))) for t in range(fresh.m)]
        sci_test, g2_test = make_test(data, "sci"), make_test(data, "g2")
        for t in range(data.m):
            climb(data, t, sci_test)
        assert [_roles(climb(data, t, g2_test)) for t in range(data.m)] == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 7), st.integers(0, 2 ** 31), st.sampled_from(["sci", "g2"]), st.integers(0, 3))
    def test_members_hold_the_target(self, m, seed, kind, max_cond):
        # the AND rule climb relies on instead of re-checking each child
        data = forward_sample(random_net(m, 0.5, seed, card_range=(2, 3)), SampleSpec(400, 0.0, seed))
        test = make_test(data, kind)
        pcs = [find_pc(data, t, test, max_cond)[0] for t in range(m)]
        assert all(t in pcs[c] for t in range(m) for c in pcs[t])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 8), st.integers(0, 2 ** 31), st.sampled_from(["sci", "g2"]), st.integers(0, 3))
    def test_one_sided_search_invariant(self, m, seed, kind, max_cond):
        # re-asked on a fresh test: no subset of up to max_cond of the other
        # members separates a member (z in joining order, as the search asks
        # it), and every non-member's sepset separates it in some order
        data = forward_sample(random_net(m, 0.5, seed, card_range=(2, 3)), SampleSpec(400, 0.0, seed))
        for t in range(m):
            cpc, seps = _half_pc(data, t, make_test(data, kind), max_cond)
            check = make_test(data, kind)
            for v in cpc:
                pool = [u for u in cpc if u != v]
                for size in range(min(max_cond, len(pool)) + 1):
                    for zs in combinations(pool, size):
                        assert not check(t, v, zs).independent, (t, v, zs)
            assert set(seps) == set(range(m)) - set(cpc) - {t}
            for v, sep in seps.items():
                assert len(sep) <= max_cond
                assert any(check(t, v, zs).independent for zs in permutations(sorted(sep))), (t, v, sep)

    @pytest.mark.parametrize("search", [find_pc, pcmb, climb])
    def test_negative_max_cond_rejected(self, search):
        data = forward_sample(chain_net(), SampleSpec(500, 0.0, 24))
        test = make_test(data, "sci")
        with pytest.raises(ValueError, match="max_cond"):
            search(data, data.index_of("T"), test, max_cond=-1)
        assert test.count == 0

    @pytest.mark.parametrize("search", [find_pc, pcmb, climb])
    @pytest.mark.parametrize("other", [chain_net, blanket_demo_network], ids=["same-width", "other-width"])
    def test_test_of_another_table_refused(self, search, other):
        # a test answers from its own table: one bound to a table of the same
        # width would silently answer for the wrong data
        data = forward_sample(chain_net(), SampleSpec(500, 0.0, 24))
        test = make_test(forward_sample(other(), SampleSpec(500, 0.0, 25)), "sci")
        with pytest.raises(ValueError, match="bound to another table"):
            search(data, data.index_of("T"), test)
        assert test.count == 0


class TestScorePartition:
    def test_empty_neighbourhood_is_unconditional_cost(self):
        data = forward_sample(chain_net(), SampleSpec(500, 0.0, 31))
        i = data.index_of("T")
        score = score_partition(data, i, Partition(frozenset(), frozenset()))
        assert score == pytest.approx(stochastic_complexity(data.columns[i], data.cards[i]))

    def test_single_neighbour_both_roles_match_oracle(self):
        rng = np.random.default_rng(17)
        data = CategoricalTable.from_columns(
            [("T", rng.integers(0, 3, 20), 3), ("A", rng.integers(0, 2, 20), 2)]
        )
        it, ia = 0, 1
        labels_a, _ = group_labels(data, [ia])
        labels_t, _ = group_labels(data, [it])
        as_parent = score_partition(data, it, Partition(frozenset({ia}), frozenset()))
        expect_parent = conditional_sc(data.columns[it], 3, labels_a) + stochastic_complexity(
            data.columns[ia], 2
        )
        assert as_parent == pytest.approx(expect_parent, abs=1e-9)
        as_child = score_partition(data, it, Partition(frozenset(), frozenset({ia})))
        expect_child = stochastic_complexity(data.columns[it], 3) + conditional_sc(
            data.columns[ia], 2, labels_t
        )
        assert as_child == pytest.approx(expect_child, abs=1e-9)

    def test_listing_order_irrelevant(self):
        rng = np.random.default_rng(18)
        cols = [("T", rng.integers(0, 2, 60), 2)] + [
            (f"v{i}", rng.integers(0, 2, 60), 2) for i in range(4)
        ]
        data = CategoricalTable.from_columns(cols)
        a = score_partition(data, 0, Partition(frozenset({1, 2}), frozenset({3, 4})))
        b = score_partition(data, 0, Partition(frozenset({2, 1}), frozenset({4, 3})))
        assert a == b

    def test_shared_terms_price_each_split_afresh(self):
        # one _Terms across many splits, as climb_orient keeps it, gives every
        # split the bits of its terms summed in score_partition's order
        rng = np.random.default_rng(23)
        cards = [2, 3, 4, 2, 3, 1]
        data = CategoricalTable.from_columns([(f"v{i}", rng.integers(0, k, 300), k) for i, k in enumerate(cards)])
        terms = blanket._Terms(data, None)
        for _ in range(80):
            target = int(rng.integers(0, len(cards)))
            roles = rng.integers(0, 3, len(cards))  # 0: outside, 1: parent, 2: child
            pa = [v for v in range(len(cards)) if v != target and roles[v] == 1]
            ch = [v for v in range(len(cards)) if v != target and roles[v] == 2]
            want = conditional_sc(data.columns[target], cards[target], group_labels(data, pa)[0])
            for p in pa:
                want += stochastic_complexity(data.columns[p], cards[p])
            labels_t, _ = group_labels(data, [target])
            for c in ch:
                want += conditional_sc(data.columns[c], cards[c], labels_t)
            assert terms.score(target, set(pa), set(ch)) == want
            assert score_partition(data, target, Partition(frozenset(pa), frozenset(ch))) == want

    def test_rejects_overlap(self):
        data = forward_sample(chain_net(), SampleSpec(100, 0.0, 1))
        with pytest.raises(ValueError):
            score_partition(data, 0, Partition(frozenset({1}), frozenset({1})))

    @pytest.mark.parametrize(
        "parents, children, match",
        [
            ({0}, set(), "holds the target"),
            ({2}, {0}, "holds the target"),
            ({9}, set(), "index 9 outside"),
            (set(), {-1}, "index -1 outside"),
        ],
    )
    def test_rejects_target_and_out_of_range_members(self, parents, children, match):
        data = forward_sample(chain_net(), SampleSpec(100, 0.0, 1))
        with pytest.raises(ValueError, match=match):
            score_partition(data, 0, Partition(frozenset(parents), frozenset(children)))

    @pytest.mark.parametrize("target", [3, -1])
    def test_rejects_out_of_range_target(self, target):
        data = forward_sample(chain_net(), SampleSpec(100, 0.0, 1))
        with pytest.raises(ValueError, match=f"target index {target} outside"):
            score_partition(data, target, Partition(frozenset({1}), frozenset()))
        with pytest.raises(ValueError, match=f"target index {target} outside"):
            find_best_partition(data, target, frozenset({1}))


class TestFindBestPartition:
    def test_empty_set(self):
        data = forward_sample(chain_net(), SampleSpec(100, 0.0, 1))
        part = find_best_partition(data, 0, frozenset())
        assert part == Partition(frozenset(), frozenset())

    def test_matches_exhaustive_rescoring(self):
        rng = np.random.default_rng(19)
        cols = [("T", rng.integers(0, 2, 200), 2)] + [
            (f"v{i}", rng.integers(0, 2, 200), 2) for i in range(3)
        ]
        data = CategoricalTable.from_columns(cols)
        pc = frozenset({1, 2, 3})
        got = find_best_partition(data, 0, pc)
        best = None
        for mask in range(8):
            pa = frozenset(v for i, v in enumerate(sorted(pc)) if mask >> i & 1)
            part = Partition(pa, pc - pa)
            key = (
                score_partition(data, 0, part),
                len(pa),
                tuple(sorted(data.names[v] for v in pa)),
            )
            if best is None or key < best[0]:
                best = (key, part)
        assert got == best[1]

    def test_cap_exceeded_names_node(self):
        rng = np.random.default_rng(20)
        cols = [(f"v{i}", rng.integers(0, 2, 50), 2) for i in range(6)]
        data = CategoricalTable.from_columns(cols)
        with pytest.raises(PartitionCapError) as err:
            find_best_partition(data, 0, frozenset(range(1, 6)), cap=3)
        assert "v0" in str(err.value)
        assert "5" in str(err.value)

    def test_negative_cap_refused(self):
        data = forward_sample(chain_net(), SampleSpec(100, 0.0, 1))
        for pc in (set(), {1, 2}):
            with pytest.raises(ValueError, match="cap must be >= 0"):
                find_best_partition(data, 0, pc, cap=-1)
        # cap = 0 stays valid: an empty set is split, a member is refused
        assert find_best_partition(data, 0, set(), cap=0) == Partition(frozenset(), frozenset())
        with pytest.raises(PartitionCapError):
            find_best_partition(data, 0, {1}, cap=0)

    @pytest.mark.parametrize("bad", [0, 3, 99, -1])
    def test_invalid_member_refused(self, bad):
        data = forward_sample(chain_net(), SampleSpec(100, 0.0, 1))
        message = "holds the target" if bad == 0 else "outside"
        with pytest.raises(ValueError, match=message):
            find_best_partition(data, 0, {1, 2, bad})

    def test_groups_rows_once_per_conditioning_set(self, monkeypatch):
        # the member and root terms share two groupings, () and (target,);
        # the walk refines, it never groups from scratch
        rng = np.random.default_rng(8)
        data = CategoricalTable.from_columns([(f"v{i}", rng.integers(0, 3, 300), 3) for i in range(6)])
        grouped = []

        def traced(table, cols):
            grouped.append(tuple(cols))
            return group_labels(table, cols)

        monkeypatch.setattr(blanket, "group_labels", traced)
        want = find_best_partition(data, 2, {0, 1, 3, 4, 5})
        assert sorted(grouped) == [(), (2,)]
        monkeypatch.undo()
        assert find_best_partition(data, 2, {0, 1, 3, 4, 5}) == want

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(21)
        base = [("T", rng.integers(0, 2, 400), 2)] + [
            (f"v{i}", rng.integers(0, 2, 400), 2) for i in range(3)
        ]
        data = CategoricalTable.from_columns(base)
        perm = [3, 1, 0, 2]
        shuffled = CategoricalTable(
            tuple(data.names[i] for i in perm),
            tuple(data.columns[i] for i in perm),
            tuple(data.cards[i] for i in perm),
        )
        t_new = perm.index(0)
        pc_new = frozenset(perm.index(v) for v in (1, 2, 3))
        a = find_best_partition(data, 0, frozenset({1, 2, 3}))
        b = find_best_partition(shuffled, t_new, pc_new)
        assert {data.names[v] for v in a.parents} == {shuffled.names[v] for v in b.parents}


def exhaustive_partition(table, target, pc_set, regrets=None):
    """Reference search: every subset regrouped from scratch, same sum and tie key."""
    members = sorted(pc_set, key=lambda i: table.names[i])
    if not members:
        return Partition(frozenset(), frozenset())
    solo_cost = {
        v: stochastic_complexity(table.columns[v], table.cards[v], regrets) for v in members
    }
    labels_t, _ = group_labels(table, [target])
    child_cost = {
        v: conditional_sc(table.columns[v], table.cards[v], labels_t, regrets) for v in members
    }
    best_key = best = None
    for mask in range(1 << len(members)):
        pa = [v for i, v in enumerate(members) if mask >> i & 1]
        labels_pa, _ = group_labels(table, pa)
        score = conditional_sc(table.columns[target], table.cards[target], labels_pa, regrets)
        for v in members:
            score += solo_cost[v] if v in pa else child_cost[v]
        key = (score, len(pa), tuple(table.names[v] for v in pa))
        if best_key is None or key < best_key:
            best_key = key
            best = Partition(frozenset(pa), frozenset(m for m in members if m not in pa))
    return best


# one member column each: uniform over 2-4 values, uniform over 2, constant, 256 values (which
# sends the reference's grouping above the dense-counting cut), 256 declared
# values of which at most 3 occur (above the cut, yet with large cells), or an
# exact copy of the member before it (a leading copy has none and draws 2 values)
_MEMBER_KINDS = st.lists(st.sampled_from(["small", "two", "one", "wide", "sparse", "dup"]), max_size=8)


# the target column, drawn like a member: with 256 declared values every
# refinement is above the dense-counting cut
_TARGET_KINDS = st.sampled_from(["one", "small", "wide", "sparse"])


def _random_column(rng, kind, n):
    card = {"small": int(rng.integers(2, 5)), "two": 2, "one": 1, "wide": 256, "sparse": 256, "dup": 2}[kind]
    if kind == "sparse":
        return rng.choice(rng.choice(card, 3), n), card
    return rng.integers(0, card, n), card


def _random_table(target_kind, kinds, n, seed):
    """Target in column 0, then one member column per kind, names shuffled."""
    rng = np.random.default_rng(seed)
    cols = [("T", *_random_column(rng, target_kind, n))]
    for kind in kinds:
        if kind == "dup" and len(cols) > 1:
            cols.append(cols[-1])
            continue
        cols.append((None, *_random_column(rng, kind, n)))
    # names drawn apart from column order, so member order is name order only
    names = [f"v{i:02d}" for i in rng.permutation(len(cols))]
    return CategoricalTable.from_columns(
        [(name, codes, card) for name, (_, codes, card) in zip(names, cols)]
    )


class TestPartitionSearchProperty:
    @settings(max_examples=60, deadline=None)
    @given(_TARGET_KINDS, _MEMBER_KINDS, st.integers(0, 40), st.integers(0, 2 ** 31))
    @example("small", ["small", "one", "wide", "dup", "small", "small", "dup", "small"], 30, 3)
    @example("small", ["wide", "dup", "one", "small"], 7, 11)
    @example("small", [], 5, 0)
    @example("wide", ["small", "dup", "one"], 20, 4)
    @example("one", ["small", "wide"], 12, 5)
    @example("small", ["small", "wide", "dup"], 0, 6)
    def test_matches_exhaustive_reference(self, target_kind, kinds, n, seed):
        table = _random_table(target_kind, kinds, n, seed)
        pc = frozenset(range(1, table.m))
        regrets = RegretTable()
        got = find_best_partition(table, 0, pc, regrets=regrets)
        assert got == exhaustive_partition(table, 0, pc, regrets)

    @settings(max_examples=60, deadline=None)
    @given(_TARGET_KINDS, _MEMBER_KINDS, st.integers(0, 300), st.integers(0, 2 ** 31))
    @example("small", ["small", "wide", "small"], 30, 1)  # a card-256 member
    @example("wide", ["small", "small"], 30, 2)  # a card-256 target
    @example("small", ["small", "sparse", "small", "small"], 300, 8)
    @example("sparse", ["small", "small", "small"], 300, 9)
    @example("one", ["small", "one", "small"], 25, 3)  # card-1 target and member
    @example("small", ["one", "one", "small"], 25, 4)  # card-1 members
    @example("small", ["small", "dup", "dup", "wide", "dup"], 35, 5)  # duplicate columns
    @example("small", ["small", "wide", "dup"], 0, 6)  # no rows
    @example("wide", ["wide", "small"], 0, 7)
    @example("one", ["wide", "sparse", "small"], 0, 10)  # card-1 target, no rows
    @example("one", ["small", "wide", "small", "dup"], 120, 11)  # card-1 target, above-cut members
    @example("wide", ["small", "sparse", "one", "dup"], 200, 12)  # card-256 target
    @example("sparse", ["wide", "small", "small"], 40, 13)  # card-256 target and member
    @example("small", ["sparse", "wide", "small", "small"], 300, 14)  # above-cut subsets deeper in
    @example("small", ["two"] * 6, 40, 0)  # mixed-radix labels for 4 levels, then compacted
    @example("small", ["two"] * 4 + ["wide"], 2100, 0)  # 3 mixed-radix levels, a 256-valued member above the cut
    def test_refined_term_matches_conditional_sc(self, target_kind, kinds, n, seed):
        """Every subset's fused term is ``conditional_sc`` over its grouping, bit for bit.

        The kernel hands on labels over a domain of ``sizes.shape[0]`` values,
        mixed-radix and uncompacted below the cut: compacting them gives the
        subset's ``group_labels``, and a refinement above the cut starts from
        compacted labels only.
        """
        table = _random_table(target_kind, kinds, n, seed)
        x_t, k_t = table.columns[0], table.cards[0]
        regrets = RegretTable()
        refined_term = _refined_terms(table, 0, list(range(1, table.m)), regrets)

        def walk(subset, labels, sizes, nxt):
            grouped = group_labels(table, subset)
            for i in range(nxt, table.m):
                if not _countable(sizes.shape[0] * table.cards[i] * k_t, table.n):
                    assert np.array_equal(labels, grouped[0]) and np.array_equal(sizes, grouped[1])
                cols = [*subset, i]
                want_labels, want_sizes = group_labels(table, cols)
                want = conditional_sc(x_t, k_t, want_labels, regrets)
                leaf, _, leaf_sizes = refined_term(labels, sizes, i, False)
                term, got_labels, got_sizes = refined_term(labels, sizes, i, True)
                assert term.hex() == want.hex() == leaf.hex()
                assert np.array_equal(np.bincount(got_labels, minlength=got_sizes.shape[0]), got_sizes)
                compact_labels, compact_sizes = _compact(got_labels, got_sizes)
                assert np.array_equal(compact_labels, want_labels)
                assert np.array_equal(compact_sizes, want_sizes)
                assert np.array_equal(leaf_sizes, want_sizes)
                walk(cols, got_labels, got_sizes, i + 1)

        walk([], *group_labels(table, []), 1)

    @pytest.mark.parametrize("kinds, n, steps", [
        (["two"] * 6, 40, "MMMMCC"),
        (["two"] * 4 + ["wide"], 2100, "MMMCA"),
    ])
    def test_labels_stay_mixed_radix_until_the_cut(self, monkeypatch, kinds, n, steps):
        """Down one path, labels stay mixed-radix while every child is within the cut.

        Per member: ``M`` hands on the mixed-radix labels ``code // k_t`` over
        the product of the cardinalities, ``C`` compacts them, ``A`` refines
        above the cut. These are the walks of the property test's examples.
        """
        table = _random_table("small", kinds, n, 0)
        compacted = []
        monkeypatch.setattr(blanket, "_compact", lambda *a: compacted.append(1) or _compact(*a))
        refined_term = _refined_terms(table, 0, list(range(1, table.m)), None)
        labels, sizes = group_labels(table, [])
        got = ""
        for col in range(1, table.m):
            above = not _countable(sizes.shape[0] * table.cards[col] * table.cards[0], n)
            before = len(compacted)
            _, labels, sizes = refined_term(labels, sizes, col, True)
            if above:
                got += "A"
            elif len(compacted) > before:
                got += "C"
            else:
                assert sizes.shape[0] == np.prod(table.cards[1:col + 1])
                got += "M"
        assert got == steps


class TestClimb:
    def test_demo_network_blanket(self):
        net = blanket_demo_network()
        data = forward_sample(net, SampleSpec(10000, 0.0, 5))
        test = make_test(data, "sci")
        res = climb(data, data.index_of("T"), test)
        names = lambda s: {data.names[i] for i in s}
        assert names(res.parents) == {"P1", "P2", "P3"}
        assert names(res.children) == {"C1", "C2"}
        assert names(res.spouses) == {"S"}
        assert res.tests_performed == test.count

    def test_isolated_target_empty(self):
        rng = np.random.default_rng(30)
        data = CategoricalTable.from_columns(
            [(v, rng.integers(0, 2, 2000), 2) for v in ("T", "a", "b")]
        )
        res = climb(data, 0, make_test(data, "sci"))
        assert res.parents == res.children == res.spouses == frozenset()

    def test_vstructure_roles(self):
        data = forward_sample(vstructure_net(), SampleSpec(10000, 0.0, 40))
        test = make_test(data, "sci")
        res = climb(data, data.index_of("T"), test)
        assert {data.names[i] for i in res.children} == {"C"}
        assert {data.names[i] for i in res.spouses} == {"S"}
        assert res.parents == frozenset()

    def test_sets_disjoint_and_exclude_target(self):
        net = blanket_demo_network()
        data = forward_sample(net, SampleSpec(3000, 0.0, 41))
        for name in ("T", "C1", "P2", "N2"):
            res = climb(data, data.index_of(name), make_test(data, "sci"))
            members = [res.parents, res.children, res.spouses]
            assert all(data.index_of(name) not in s for s in members)
            assert len(res.parents | res.children | res.spouses) == sum(map(len, members))

    def test_union_matches_reference_blanket(self):
        net = blanket_demo_network()
        data = forward_sample(net, SampleSpec(10000, 0.0, 5))
        res = climb(data, data.index_of("T"), make_test(data, "sci"))
        mb, _ = pcmb(data, data.index_of("T"), make_test(data, "sci"))
        assert res.parents | res.children | res.spouses == mb

    def test_fewer_tests_than_reference(self):
        net = blanket_demo_network()
        data = forward_sample(net, SampleSpec(5000, 0.0, 42))
        t1 = make_test(data, "sci")
        res = climb(data, data.index_of("T"), t1)
        t2 = make_test(data, "sci")
        _, count = pcmb(data, data.index_of("T"), t2)
        assert res.tests_performed <= count

    @staticmethod
    def _assert_rerun_replays(search, kind):
        # a rerun on the same test adds the count a search from the verdict
        # memo alone adds, and evaluates nothing
        data = forward_sample(blanket_demo_network(), SampleSpec(3000, 0.0, 42))
        target = data.index_of("T")
        memo, verdicts_only = make_test(data, kind), make_test(data, kind)
        first = search(data, target, memo)
        assert search(data, target, verdicts_only) == first
        evaluated = memo.evaluated
        verdicts_only.pc_searches.clear()
        again = search(data, target, memo)
        assert again == search(data, target, verdicts_only) == first
        assert memo.evaluated == verdicts_only.evaluated == evaluated

    @pytest.mark.parametrize("kind", ["sci", "g2"])
    def test_pcmb_rerun_replays_its_candidate_searches(self, kind):
        self._assert_rerun_replays(pcmb, kind)

    @pytest.mark.parametrize("kind", ["sci", "g2"])
    def test_climb_rerun_replays_its_candidate_searches(self, kind):
        self._assert_rerun_replays(climb, kind)

    @pytest.mark.parametrize("kind", ["sci", "g2"])
    @pytest.mark.parametrize("search", [climb, pcmb])
    def test_search_memo_changes_no_result_or_count(self, search, kind, monkeypatch):
        # every target on one shared test, on a test whose searches are
        # cleared before each call, and with no search memo at all: the same
        # blankets and the same count per call, whatever ran before
        data = forward_sample(random_net(8, 0.4, 5, card_range=(2, 3)), SampleSpec(800, 0.0, 5))
        shared, cleared = make_test(data, kind), make_test(data, kind)
        got = [search(data, t, shared) for t in range(data.m)]
        want = []
        for t in range(data.m):
            cleared.pc_searches.clear()
            want.append(search(data, t, cleared))
        assert got == want
        monkeypatch.setattr(blanket, "_search", lambda run, table, target, test, max_cond:
                            run(table, target, test, max_cond))
        unmemoised = make_test(data, kind)
        assert [search(data, t, unmemoised) for t in range(data.m)] == want
        assert not unmemoised.pc_searches

    def test_pcmb_spouse_test_conditions_on_the_dropped_candidates_sepset(self):
        # VENTTUBE's candidate MINVOL (a child of its child VENTLUNG) fails
        # the AND rule, and MINVOL's own search separated the pair by
        # {INTUBATION, VENTLUNG}; with an empty sepset instead, the spouse
        # test through VENTLUNG would keep MINVOL
        net = alarm_network()
        data = forward_sample(net, SampleSpec(1000, 0.0, 0))
        test = make_test(data, "sci")
        found = {v: {data.names[i] for i in pcmb(data, data.index_of(v), test)[0]} for v in net.nodes}
        dag = net.dag()
        true_mb = dag.parents("VENTTUBE") | dag.children("VENTTUBE")
        true_mb |= {p for c in dag.children("VENTTUBE") for p in dag.parents(c)} - {"VENTTUBE"}
        assert "MINVOL" not in true_mb
        assert "MINVOL" not in found["VENTTUBE"]
        assert found["VENTTUBE"] <= true_mb

    def test_cap_error_propagates(self):
        net = blanket_demo_network()
        data = forward_sample(net, SampleSpec(8000, 0.0, 44))
        with pytest.raises(PartitionCapError):
            climb(data, data.index_of("T"), make_test(data, "sci"), cap=1)

    def test_negative_cap_refused_before_any_test(self):
        data = forward_sample(chain_net(), SampleSpec(500, 0.0, 24))
        test = make_test(data, "sci")
        with pytest.raises(ValueError, match="cap must be >= 0"):
            climb(data, data.index_of("T"), test, cap=-1)
        assert test.count == 0

    def test_concurrent_targets_match_sequential(self):
        import threading

        net = blanket_demo_network()
        data = forward_sample(net, SampleSpec(3000, 0.0, 46))
        targets = [data.index_of(v) for v in ("T", "C1", "P1", "S")]
        sequential = {
            t: climb(data, t, make_test(data, "sci")) for t in targets
        }
        results = {}

        def worker(t):
            results[t] = climb(data, t, make_test(data, "sci"))

        threads = [threading.Thread(target=worker, args=(t,)) for t in targets]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for t in targets:
            assert results[t].parents == sequential[t].parents
            assert results[t].children == sequential[t].children
            assert results[t].spouses == sequential[t].spouses
