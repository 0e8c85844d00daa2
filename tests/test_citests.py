import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climb import citests
from climb.citests import (
    _SCRATCH_WORDS,
    CiQuery,
    _bincounts,
    _bit_counts,
    _Given,
    _givens,
    g2_test,
    make_test,
    sci,
)
from climb.nml import RegretTable, shared_regrets
from climb.sampling import SampleSpec, dsep_fixture
from climb.table import CategoricalTable
from test_ci_golden import directional_score


def table_from(cols):
    return CategoricalTable.from_columns(cols)


def cmi(t, x, y, z=()):
    """The CMI test's statistic, plug-in I(x; y | z) in bits per sample."""
    return make_test(t, "cmi")(x, y, z).statistic


def balanced_pair(n):
    """x and y with exactly factorized 2x2 counts."""
    quarter = n // 4
    x = np.repeat([0, 0, 1, 1], quarter)
    y = np.tile([0, 1], 2 * quarter)
    return table_from([("x", x, 2), ("y", y, 2)])


class TestCiQuery:
    def test_rejects_bad_indices(self):
        t = balanced_pair(8)
        with pytest.raises(ValueError):
            CiQuery(0, 0, (), t)
        with pytest.raises(ValueError):
            CiQuery(0, 1, (0,), t)
        with pytest.raises(ValueError):
            CiQuery(0, 5, (), t)


class TestEmpiricalCmi:
    def test_factorized_counts_zero(self):
        t = balanced_pair(100)
        assert cmi(t, 0, 1) == 0.0

    def test_identical_balanced_one_bit(self):
        x = np.array([0, 1] * 50)
        t = table_from([("x", x, 2), ("y", x, 2)])
        assert cmi(t, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_xor_conditional_one_bit(self):
        rows = [(x, y, x ^ y) for x in (0, 1) for y in (0, 1) for _ in range(5)]
        arr = np.array(rows)
        t = table_from([("a", arr[:, 0], 2), ("b", arr[:, 1], 2), ("c", arr[:, 2], 2)])
        assert cmi(t, 0, 2, (1,)) == pytest.approx(1.0, abs=1e-12)
        # marginally the xor pair is independent
        assert cmi(t, 0, 2) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(5, 60), st.integers(0, 2 ** 31))
    def test_symmetric_and_nonnegative(self, kx, ky, n, seed):
        rng = np.random.default_rng(seed)
        t = table_from(
            [
                ("x", rng.integers(0, kx, n), kx),
                ("y", rng.integers(0, ky, n), ky),
                ("z", rng.integers(0, 2, n), 2),
            ]
        )
        a = cmi(t, 0, 1, (2,))
        b = cmi(t, 1, 0, (2,))
        assert a >= 0.0
        assert a == pytest.approx(b, abs=1e-12)


class TestDirectionalScore:
    def test_independent_pair_is_negative(self):
        t = balanced_pair(8)
        got = directional_score(CiQuery(0, 1, (), t))
        regret = shared_regrets().log_regret
        expect = regret(2, 8) - 2 * regret(2, 4)
        assert got == pytest.approx(expect, abs=1e-9)
        assert got < 0

    def test_constant_column_scores_zero(self):
        t = table_from([("x", np.zeros(20, dtype=int), 1), ("y", np.arange(20) % 2, 2)])
        assert directional_score(CiQuery(0, 1, (), t)) == 0.0

    def test_identical_columns_positive(self):
        x = np.array([0, 1] * 50)
        t = table_from([("x", x, 2), ("y", x, 2)])
        got = directional_score(CiQuery(0, 1, (), t))
        regret = shared_regrets().log_regret
        expect = 100 * 1.0 + regret(2, 100) - 2 * regret(2, 50)
        assert got == pytest.approx(expect, abs=1e-9)
        assert got > 0


class TestSci:
    def test_factorized_independent(self):
        verdict = sci(CiQuery(0, 1, (), balanced_pair(100)))
        assert verdict.independent
        assert verdict.statistic <= 0

    def test_identical_dependent(self):
        x = np.array([0, 1] * 50)
        t = table_from([("x", x, 2), ("y", x, 2)])
        verdict = sci(CiQuery(0, 1, (), t))
        assert not verdict.independent
        assert verdict.statistic > 0

    def test_unit_cardinality_independent(self):
        rng = np.random.default_rng(3)
        t = table_from([("x", np.zeros(50, dtype=int), 1), ("y", rng.integers(0, 3, 50), 3)])
        verdict = sci(CiQuery(0, 1, (), t))
        assert verdict.independent
        assert verdict.statistic <= 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(4, 80), st.integers(0, 2 ** 31))
    def test_exactly_symmetric(self, kx, ky, n, seed):
        rng = np.random.default_rng(seed)
        t = table_from(
            [
                ("x", rng.integers(0, kx, n), kx),
                ("y", rng.integers(0, ky, n), ky),
                ("z", rng.integers(0, 2, n), 2),
            ]
        )
        assert sci(CiQuery(0, 1, (2,), t)).statistic == sci(CiQuery(1, 0, (2,), t)).statistic

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 25), st.integers(0, 2 ** 31))
    def test_zero_information_implies_independent(self, kx, ky, reps, seed):
        # product counts make the plug-in information exactly zero; the
        # verdict must then be independence, whatever the regret terms do
        rng = np.random.default_rng(seed)
        wx = rng.integers(1, 4, size=kx)
        wy = rng.integers(1, 4, size=ky)
        xs, ys = [], []
        for i in range(kx):
            for j in range(ky):
                count = int(wx[i] * wy[j]) * reps
                xs += [i] * count
                ys += [j] * count
        t = table_from([("x", xs, kx), ("y", ys, ky)])
        assert cmi(t, 0, 1) == 0.0
        assert sci(CiQuery(0, 1, (), t)).independent


class TestG2:
    def test_factorized_zero(self):
        verdict = g2_test(CiQuery(0, 1, (), balanced_pair(100)))
        assert verdict.statistic == 0.0
        assert verdict.p_value == pytest.approx(1.0)
        assert verdict.independent

    def test_identical_closed_form(self):
        x = np.array([0, 1] * 50)
        t = table_from([("x", x, 2), ("y", x, 2)])
        verdict = g2_test(CiQuery(0, 1, (), t), alpha=0.01)
        assert verdict.statistic == pytest.approx(200 * math.log(2), rel=1e-12)
        assert not verdict.independent

    def test_reliability_heuristic_returns_independent(self):
        x = np.array([0, 1] * 4)
        t = table_from([("x", x, 2), ("y", x, 2)])
        verdict = g2_test(CiQuery(0, 1, (), t))  # n=8 < 10 * 1 dof
        assert verdict.independent
        assert verdict.p_value == 1.0

    def test_heuristic_can_be_disabled(self):
        x = np.array([0, 1] * 4)
        t = table_from([("x", x, 2), ("y", x, 2)])
        verdict = g2_test(CiQuery(0, 1, (), t), min_samples_per_dof=0.0)
        assert not verdict.independent

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 2.0, float("nan")])
    def test_alpha_outside_unit_interval_refused(self, alpha):
        t, _ = dsep_fixture(SampleSpec(500, 0.3, 1))
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            g2_test(CiQuery(0, 3, (), t), alpha=alpha)

    def test_degenerate_stratum_independent(self):
        t = table_from(
            [("x", np.zeros(200, dtype=int), 2), ("y", np.arange(200) % 2, 2)]
        )
        verdict = g2_test(CiQuery(0, 1, (), t))
        assert verdict.statistic == 0.0
        assert verdict.independent


class TestCmiTest:
    def test_factorized_independent_at_zero_cutoff(self):
        assert make_test(balanced_pair(64), "cmi", cutoff=0.0)(0, 1).independent

    def test_identical_dependent(self):
        x = np.array([0, 1] * 32)
        t = table_from([("x", x, 2), ("y", x, 2)])
        assert not make_test(t, "cmi", cutoff=0.0)(0, 1).independent

    def test_noisy_independent_pair_flagged_dependent(self):
        # the false-alarm failure mode of the zero cutoff on small samples
        rng = np.random.default_rng(20)
        t = table_from([("x", rng.integers(0, 4, 40), 4), ("y", rng.integers(0, 4, 40), 4)])
        assert not make_test(t, "cmi", cutoff=0.0)(0, 1).independent

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError):
            make_test(balanced_pair(8), "cmi", cutoff=-1.0)


class TestRegretIsolation:
    def test_baselines_never_touch_the_regret_table(self, monkeypatch):
        import climb.nml as nml

        def boom(*args, **kwargs):
            raise AssertionError("regret table consulted")

        monkeypatch.setattr(nml.RegretTable, "log_regret", boom)
        monkeypatch.setattr(nml.RegretTable, "log_regret_many", boom)
        x = np.array([0, 1] * 50)
        t = table_from([("x", x, 2), ("y", x, 2)])
        g2_test(CiQuery(0, 1, (), t))
        make_test(t, "cmi")(0, 1)


class TestMakeTest:
    def test_counts_invocations(self):
        t = balanced_pair(16)
        tester = make_test(t, "sci")
        tester(0, 1, ())
        tester(0, 1, ())
        assert tester.count == 2

    def test_memo_counts_logical_and_evaluated_calls(self):
        t = balanced_pair(16)
        tester = make_test(t, "sci")
        first = tester(0, 1, ())
        assert tester(0, 1, ()) is first
        assert (tester.count, tester.evaluated) == (2, 1)

    def test_swapped_pair_hits_the_memo_for_sci_only(self):
        x = np.array([0, 1, 1, 0] * 25)
        t = table_from([("x", x, 2), ("y", x[::-1], 2), ("z", np.arange(100) % 3, 3)])
        sci_test = make_test(t, "sci")
        sci_test(0, 1, (2,))
        sci_test(1, 0, (2,))
        assert (sci_test.count, sci_test.evaluated) == (2, 1)
        for kind in ("g2", "cmi"):
            tester = make_test(t, kind, min_samples_per_dof=0.0)
            tester(0, 1, (2,))
            tester(1, 0, (2,))
            assert (tester.count, tester.evaluated) == (2, 2)

    def test_reordered_conditioning_set_is_a_new_query(self):
        rng = np.random.default_rng(4)
        t = table_from([(c, rng.integers(0, 2, 60), 2) for c in "abcd"])
        tester = make_test(t, "sci")
        tester(0, 1, (2, 3))
        tester(0, 1, (3, 2))
        assert tester.evaluated == 2

    def test_invalid_query_is_counted_but_not_evaluated(self):
        tester = make_test(balanced_pair(8), "sci")
        with pytest.raises(ValueError):
            tester(0, 0, ())
        assert (tester.count, tester.evaluated) == (1, 0)

    def test_configuration_is_read_only(self):
        tester = make_test(balanced_pair(8), "g2", alpha=0.05)
        for name, value in (("alpha", 0.5), ("kind", "sci"), ("table", None), ("cutoff", 1.0),
                            ("min_samples_per_dof", 0.0), ("regrets", None)):
            with pytest.raises(AttributeError):
                setattr(tester, name, value)
        assert tester.alpha == 0.05 and tester.kind == "g2"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_test(balanced_pair(8), "fisher")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"alpha": 2.0}, "alpha"),
            ({"alpha": float("nan")}, "alpha"),
            ({"cutoff": -1.0}, "cutoff"),
            ({"cutoff": float("nan")}, "cutoff"),
        ],
    )
    def test_out_of_range_settings_rejected_for_every_kind(self, config, message):
        for kind in ("sci", "g2", "cmi"):
            with pytest.raises(ValueError, match=message):
                make_test(balanced_pair(8), kind, **config)

    @pytest.mark.parametrize("kind", ["sci", "g2", "cmi"])
    def test_repeated_conditioning_variable_rejected(self, kind):
        # a repeated z column would multiply G²'s degrees of freedom again
        rng = np.random.default_rng(3)
        t = table_from([(c, rng.integers(0, 3, 60), 3) for c in "xyz"])
        tester = make_test(t, kind)
        for ask in (lambda: tester(0, 1, (2, 2)), lambda: tester.many(0, [1], (2, 2))):
            with pytest.raises(ValueError, match="may not repeat"):
                ask()
        assert tester.evaluated == 0

    def test_strength_orderings(self):
        x = np.array([0, 1] * 50)
        t = table_from([("x", x, 2), ("y", x, 2), ("w", np.zeros(100, dtype=int), 2)])
        for kind in ("sci", "g2", "cmi"):
            tester = make_test(t, kind, min_samples_per_dof=0.0)
            strong = tester.strength(tester(0, 1, ()))
            weak = tester.strength(tester(0, 2, ()))
            assert strong > weak


def _verdict_bits(verdict):
    return (verdict.statistic.hex(), verdict.p_value, verdict.independent)


@st.composite
def batch_cases(draw):
    """A table, warm-up queries and one batch (x, ys, z), maybe with an invalid y."""
    n = draw(st.integers(0, 150))
    cards = draw(st.lists(st.sampled_from([1, 2, 3, 4, 17]), min_size=5, max_size=8))
    seed = draw(st.integers(0, 2 ** 31))
    m = len(cards)
    x = draw(st.integers(0, m - 1))
    rest = [v for v in range(m) if v != x]
    z = tuple(draw(st.lists(st.sampled_from(rest), unique=True, max_size=3)))
    free = [v for v in rest if v not in z]
    ys = draw(st.lists(st.sampled_from(free), min_size=1, max_size=12))
    if draw(st.booleans()):
        bad = draw(st.sampled_from([x, m, -1, *z]))
        ys.insert(draw(st.integers(0, len(ys))), bad)
    # warm-up queries, some of them the batch's own (also swapped), for memo hits
    warm = [(y, x, z) if draw(st.booleans()) else (x, y, z) for y in draw(st.lists(st.sampled_from(free), max_size=4))]
    kind = draw(st.sampled_from(["sci", "g2", "cmi"]))
    floor = draw(st.sampled_from([0.0, 10.0]))
    return n, cards, seed, warm, (x, ys, z), kind, floor


class TestMany:
    """``many(x, ys, z)`` is the one-by-one loop of ``__call__``, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(batch_cases())
    def test_equals_one_by_one(self, case):
        n, cards, seed, warm, (x, ys, z), kind, floor = case
        rng = np.random.default_rng(seed)
        t = table_from([(f"c{i}", rng.integers(0, k, n), k) for i, k in enumerate(cards)])
        single, batched = (make_test(t, kind, min_samples_per_dof=floor, regrets=RegretTable()) for _ in range(2))
        for tester in (single, batched):
            for q in warm:
                tester(*q)
        try:
            want = [_verdict_bits(single(x, y, z)) for y in ys]
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                batched.many(x, ys, z)
            assert str(got.value) == str(exc)
        else:
            assert [_verdict_bits(v) for v in batched.many(x, ys, z)] == want
        assert (batched.count, batched.evaluated) == (single.count, single.evaluated)

    def test_hand_built_batch_matches_single_queries(self):
        # n = 60 puts the dense-counting cut at 4n + 64 = 304. z has 8 values
        # of which only 0-4 occur, so with x's 3 values a 17-valued y takes
        # (z, x, y) to 408 cells, above the cut, while 1, 2 and 4 stay under.
        rng = np.random.default_rng(13)
        n = 60
        cols = [("x", rng.integers(0, 3, n), 3), ("z", rng.integers(0, 5, n), 8)]
        cols += [(f"y{k}", rng.integers(0, k, n), k) for k in (1, 2, 4, 17)]
        t = table_from(cols)
        x, z, ys = 0, (1,), [2, 3, 4, 5]
        assert _Given(t, x, z, ys).counts.shape == (4, 5, 3, 17)  # realized z-groups only
        assert _Given(t, x, z, [4]).counts.shape == (1, 8, 3, 4)  # all 8 strata
        # a batch goes past the cut only for one y-cardinality, so no y is padded there
        shapes = [(places, given.counts.shape) for places, given in _givens(t, x, z, ys)]
        assert shapes == [([0, 1, 2], (3, 8, 3, 4)), ([3], (1, 5, 3, 17))]
        for kind in ("sci", "g2", "cmi"):
            want = []
            for y in ys:
                single = make_test(t, kind, min_samples_per_dof=0.0, regrets=RegretTable())
                want.append(_verdict_bits(single(x, y, z)))
            batched = make_test(t, kind, min_samples_per_dof=0.0, regrets=RegretTable())
            assert [_verdict_bits(v) for v in batched.many(x, ys, z)] == want, kind
            # an invalid y mid-batch: the misses before it are counted, evaluated and memoised
            tester = make_test(t, kind, min_samples_per_dof=0.0, regrets=RegretTable())
            tester(x, 3, z)
            with pytest.raises(ValueError, match="x and y must differ"):
                tester.many(x, [2, 3, 5, x, 4], z)
            assert (tester.count, tester.evaluated) == (5, 3)
            assert [_verdict_bits(v) for v in tester.many(x, [2, 3, 5], z)] == [want[0], want[1], want[3]]
            assert (tester.count, tester.evaluated) == (8, 3)

    def test_wide_batches_are_not_padded(self):
        # a 256-valued z with every value present puts (z, x, y) past the
        # 4n + 64 = 2464 cut for every y of 3 or more values; each such y's
        # array must then be only as wide as its own cardinality, not the
        # widest y's, and the 2-valued ys stay under the cut together
        rng = np.random.default_rng(21)
        n = 600
        cols = [("x", rng.integers(0, 4, n), 4), ("z", rng.permutation(np.arange(n) % 256), 256)]
        cols += [(f"y{i}", rng.integers(0, 2, n), 2) for i in range(6)]
        cols += [("wide", rng.integers(0, 256, n), 256), ("three", rng.integers(0, 3, n), 3)]
        t = table_from(cols)
        x, z, ys = 0, (1,), [2, 8, 3, 9, 4, 5, 6, 7]
        givens = _givens(t, x, z, ys)
        assert sorted(i for places, _ in givens for i in places) == list(range(len(ys)))
        assert len(givens) == 3
        for places, given in givens:
            assert len({t.cards[ys[i]] for i in places}) == 1
            widest = max(t.cards[ys[i]] for i in places)
            assert given.counts.size <= len(places) * max(4 * n + 64, 256 * 4 * widest)
        for kind in ("sci", "g2", "cmi"):
            want = [_verdict_bits(make_test(t, kind, min_samples_per_dof=0.0)(x, y, z)) for y in ys]
            batched = make_test(t, kind, min_samples_per_dof=0.0)
            assert [_verdict_bits(v) for v in batched.many(x, ys, z)] == want, kind

    def test_repeats_and_swaps_hit_the_memo(self):
        rng = np.random.default_rng(5)
        t = table_from([(c, rng.integers(0, 3, 80), 3) for c in "abcde"])
        tester = make_test(t, "sci")
        tester(3, 0, (4,))
        verdicts = tester.many(0, [1, 2, 1, 3, 2], (4,))
        assert (tester.count, tester.evaluated) == (6, 3)
        assert verdicts[0] is verdicts[2] and verdicts[1] is verdicts[4]

    def test_invalid_y_raises_after_the_ys_before_it(self):
        tester = make_test(balanced_pair(16), "g2")
        with pytest.raises(ValueError, match="x and y must differ"):
            tester.many(0, [1, 0, 1], ())
        assert (tester.count, tester.evaluated) == (2, 1)

    def test_empty_batch(self):
        tester = make_test(balanced_pair(16), "sci")
        assert tester.many(0, [], ()) == []
        assert (tester.count, tester.evaluated) == (0, 0)


def _mixed_radix(t, cols):
    """Each row's (cols...) cell, first column most significant, and the number of cells."""
    code, cells = np.zeros(t.n, dtype=np.int64), 1
    for c in cols:
        code = code * t.cards[c] + t.columns[c]
        cells *= t.cards[c]
    return code, cells


@st.composite
def count_cases(draw):
    """A table, an (x, z), a batch of ys of mixed cardinalities and a scratch size."""
    n = draw(st.sampled_from([0, 1, 63, 64, 65, 1000]))
    cards = draw(st.lists(st.integers(1, 5), min_size=3, max_size=9))
    seed = draw(st.integers(0, 2 ** 31))
    order = draw(st.permutations(range(len(cards))))
    z = tuple(order[1:1 + draw(st.integers(0, min(3, len(cards) - 2)))])
    free = order[1 + len(z):]
    ys = draw(st.lists(st.sampled_from(free), min_size=1, max_size=12))
    scratch = draw(st.sampled_from([1, 5, 64, 700, _SCRATCH_WORDS]))
    return n, cards, seed, order[0], z, ys, scratch


class TestBitCounts:
    """AND + popcount of row bitsets counts what one bincount per y counts."""

    @settings(max_examples=200, deadline=None)
    @given(count_cases())
    def test_equals_bincounts(self, case):
        n, cards, seed, x, z, ys, scratch = case
        rng = np.random.default_rng(seed)
        t = table_from([(f"c{i}", rng.integers(0, k, n), k) for i, k in enumerate(cards)])
        code, cells = _mixed_radix(t, (*z, x))
        width = max(cards[y] for y in ys)
        want = _bincounts(t, code, cells, ys, width).reshape(len(ys), cells, width)
        got = _bit_counts(t, (*z, x), ys, width, scratch)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_batch_across_a_chunk_boundary(self):
        # 64 (z, x) cells over 16 words: 128 y-values fill the scratch, and
        # 60 ys of 3 values take two chunks
        rng = np.random.default_rng(3)
        n = 1000
        cols = [(f"c{i}", rng.integers(0, 4, n), 4) for i in range(3)]
        cols += [(f"y{i}", rng.integers(0, 3, n), 3) for i in range(60)]
        t = table_from(cols)
        x, z, ys = 0, (1, 2), list(range(3, 63))
        code, cells = _mixed_radix(t, (*z, x))
        assert cells * 3 * 16 * len(ys) > _SCRATCH_WORDS >= cells * 3 * 16 * (len(ys) // 2)
        want = _bincounts(t, code, cells, ys, 3).reshape(len(ys), cells, 3)
        assert np.array_equal(_bit_counts(t, (*z, x), ys, 3), want)

    def test_rule_picks_the_counter(self, monkeypatch):
        # x has 2 values and the ys 3, 2, 4 and 2, so Σky = 11 for B = 4: at
        # z = () C · Σky = 22 <= 64 · 4 takes the bitsets; at z = (1, 2) C is
        # 32 and 352 > 256 keeps the bincounts, as does a lone y
        rng = np.random.default_rng(8)
        n = 500
        t = table_from([(f"c{i}", rng.integers(0, k, n), k) for i, k in enumerate([2, 4, 4, 3, 2, 4, 2])])
        x, ys = 0, [3, 4, 5, 6]
        used = []
        for name in ("_bincounts", "_bit_counts"):
            real = getattr(citests, name)
            monkeypatch.setattr(citests, name, lambda *args, name=name, real=real: used.append(name) or real(*args))
        for z, counter in (((), "_bit_counts"), ((1, 2), "_bincounts")):
            for kind in ("sci", "g2", "cmi"):
                used.clear()
                got = make_test(t, kind, regrets=RegretTable()).many(x, ys, z)
                assert used == [counter]
                want = [make_test(t, kind, regrets=RegretTable())(x, y, z) for y in ys]
                assert [_verdict_bits(v) for v in got] == [_verdict_bits(v) for v in want]
        used.clear()
        make_test(t, "sci")(x, 3, ())
        assert used == ["_bincounts"]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import and scipy.special about 0.25 s: the
    # package and its command line load no scipy at all, and the first G² verdict
    # loads scipy.special for chdtrc, still without scipy.stats
    code = (
        "import sys, climb, climb.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "t = climb.CategoricalTable.from_columns([('a', [0, 1] * 20, 2), ('b', [0, 1] * 20, 2)])\n"
        "print(climb.g2_test(climb.CiQuery(0, 1, (), t)))\n"
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded, verdict, after = out.stdout.splitlines()
    assert loaded == "[]"
    assert verdict.startswith("CiVerdict(") and "independent=False" in verdict
    assert after == "True False"
