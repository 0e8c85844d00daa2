import math
import sys
import threading
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from climb.nml import (
    RegretTable,
    _regret_bits,
    conditional_sc,
    delta,
    plugin_entropy,
    shared_regrets,
    stochastic_complexity,
)
from climb.table import CategoricalTable, group_labels, refine_labels


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_log_regret(card, n):
    """Independent oracle: enumerate every count vector of the defining sum."""
    if n == 0 or card == 1:
        return 0.0
    total = 0.0
    for counts in _compositions(n, card):
        coef = math.factorial(n)
        lik = 1.0
        for h in counts:
            coef //= math.factorial(h)
            if h:
                lik *= (h / n) ** h
        total += coef * lik
    return math.log2(total)


class TestLogRegret:
    def test_zero_samples(self):
        assert shared_regrets().log_regret(5, 0) == 0.0

    def test_single_sample_is_log_cardinality(self):
        assert shared_regrets().log_regret(4, 1) == pytest.approx(2.0, abs=1e-12)

    def test_binary_two_samples(self):
        # brute force over h1 + h2 = 2 gives 1 + 1 + 1/2 = 2.5
        assert shared_regrets().log_regret(2, 2) == pytest.approx(math.log2(2.5), abs=1e-12)

    def test_unit_cardinality(self):
        for n in (0, 1, 7, 100):
            assert shared_regrets().log_regret(1, n) == 0.0

    @pytest.mark.parametrize("card", [2, 3, 4])
    def test_matches_brute_force(self, card):
        table = RegretTable()
        for n in range(17):
            expected = brute_force_log_regret(card, n)
            got = table.log_regret(card, n)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_large_cardinality_single_sample(self):
        assert shared_regrets().log_regret(1024, 1) == pytest.approx(10.0, abs=1e-9)

    def test_huge_domain_does_not_overflow(self):
        # far beyond double exponent range if accumulated naively
        val = RegretTable().log_regret(1024, 4096)
        assert math.isfinite(val)
        assert val > 1000.0

    def test_prefix_consistency(self):
        table = RegretTable()
        first = table.log_regret(3, 50)
        assert table.filled_upto(3) == 0  # exactly one entry computed
        lows = [table.log_regret(3, i) for i in range(51)]
        assert table.log_regret(3, 50) == first
        again = [table.log_regret(3, i) for i in range(51)]
        assert lows == again

    def test_monotone_in_n(self):
        table = RegretTable()
        vals = table.log_regret_many(3, np.arange(201))
        assert np.all(np.diff(vals[1:]) > 0)

    def test_concave_in_n(self):
        table = RegretTable()
        for card in range(2, 11):
            vals = table.log_regret_many(card, np.arange(1001))
            steps = np.diff(vals)
            assert np.all(np.diff(steps) <= 1e-12)

    def test_on_demand_bits_match_scalar(self):
        # shuffled pairs reach the block-halving path and n above _BLOCK = 2048
        rng = np.random.default_rng(4)
        fixed = [0, 1, 2, 3, 17, 50, 999, 1000, 1001, 2047, 2048, 2049, 2100]
        pairs = [
            (card, int(n))
            for card in (2, 3, 4, 5, 16, 1024)
            for n in fixed + rng.integers(0, 2101, size=12).tolist()
        ]
        order = rng.permutation(len(pairs))
        table = RegretTable()
        for i, j in enumerate(order):
            card, n = pairs[j]
            if i % 2:
                got = table.log_regret(card, n)
            else:
                got = float(table.log_regret_many(card, np.array([n, n]))[1])
            assert got.hex() == _regret_bits(card, n).hex(), (card, n)
        for card in (2, 3, 4, 5, 16, 1024):
            ns = np.array([n for c, n in pairs if c == card])
            want = [_regret_bits(card, int(n)).hex() for n in ns]
            assert [v.hex() for v in table.log_regret_many(card, ns).tolist()] == want

    def test_row_wise_fill_matches_scalar(self):
        # chunks of 1 to 150 cross the 64-row blocks, repeat sample counts and
        # come in shuffled order, so a block mixes near and far n
        rng = np.random.default_rng(9)
        top = 6200
        for card in (2, 3, 4, 5, 16, 1024):
            table = RegretTable()
            order = rng.permutation(np.arange(1, top + 1))
            start = 0
            while start < top:
                chunk = order[start:start + int(rng.integers(1, 151))]
                start += chunk.shape[0]
                asked = np.concatenate([chunk, chunk[: chunk.shape[0] // 3]])
                table.log_regret_many(card, rng.permutation(asked))
                assert table.filled_upto(card) == start - 1
            got = table.log_regret_many(card, np.arange(1, top + 1)).tolist()
            want = [_regret_bits(card, n) for n in range(1, top + 1)]
            assert [v.hex() for v in got] == [v.hex() for v in want], card

    def test_many_computes_distinct_missing_only(self):
        table = RegretTable()
        table.log_regret_many(4, np.array([70, 7, 70, 7]))
        assert table.filled_upto(4) == 1
        table.log_regret_many(4, np.array([7, 300, 70]))
        assert table.filled_upto(4) == 2
        assert table.filled_upto(3) == -1

    def test_fresh_tables_share_nothing(self):
        first = RegretTable()
        first.log_regret(3, 400)
        first.log_regret_many(2, np.arange(100))
        second = RegretTable()
        assert second.filled_upto(3) == -1
        assert second.filled_upto(2) == -1
        assert second.log_regret(3, 400) == first.log_regret(3, 400)
        assert second.filled_upto(3) == 0
        assert second.filled_upto(2) == -1

    def test_many_rejects_what_scalar_rejects(self):
        table = RegretTable()
        table.log_regret(3, 5)
        for card in (1, 3):
            with pytest.raises(ValueError):
                table.log_regret(card, -1)
            with pytest.raises(ValueError):
                table.log_regret_many(card, np.array([5, -1]))
        with pytest.raises(ValueError):
            table.log_regret(0, 5)
        with pytest.raises(ValueError):
            table.log_regret_many(0, np.array([5, 6]))
        with pytest.raises(ValueError):
            table.log_regret_many(-2, np.array([], dtype=np.int64))
        assert table.filled_upto(3) == 0

    def test_concurrent_on_demand_stress(self):
        # more threads than cores, switching often: a lost count or a torn
        # read would show as a wrong value or a wrong number of entries
        table = RegretTable()
        wanted = list(range(0, 1200, 7))
        want = {n: _regret_bits(5, n) for n in wanted}
        errors = []

        def worker(slot):
            rng = np.random.default_rng(slot)
            for n in rng.permutation(wanted).tolist():
                if n % 3 == 0:
                    got = table.log_regret(5, n)
                elif n % 3 == 1:
                    got = float(table.log_regret_many(5, [n, 0])[0])
                else:
                    got = table._log_regret_sum(5, np.array([n, 0]))
                if got != want[n]:
                    errors.append((slot, n))
                # the lock-free hit path of the sum, while other threads fill
                if table._log_regret_sum(5, np.array([0, n, n])) != want[n] + want[n]:
                    errors.append((slot, -n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert table.filled_upto(5) == len(wanted) - 1  # n = 0 is among them

    def test_concurrent_fill_identical(self):
        table = RegretTable()
        results = [None] * 8

        def worker(slot):
            results[slot] = [table.log_regret(4, n) for n in (500, 123, 499)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self.lock, self.taken = threading.Lock(), 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class TestLogRegretSum:
    """``RegretTable._log_regret_sum`` is the sum of ``log_regret_many``, bit for bit."""

    @pytest.mark.parametrize("card, warm, sizes", [
        (3, [], [5, 0, 17, 5]),  # fresh table
        (3, [[0, 5, 17]], [5, 0, 17, 5]),  # full hit
        (3, [[0, 5, 40]], [5, 0, 17, 5]),  # partial miss: 17 is a NaN in the gather
        (3, [[0, 5]], [5, 300]),  # a size beyond the card's array
        (1, [], [4, 0, 9]),  # one value: no array, no regret
        (1, [[3]], [4, 0, 9]),
        (3, [], []),  # empty sizes
        (3, [[5]], []),
        (1024, [[1, 2]], [700, 1, 2, 2000]),  # a wide card, rows past the scalar block
    ])
    def test_equals_summed_lookup(self, card, warm, sizes):
        helper, lookup = RegretTable(), RegretTable()
        for table in (helper, lookup):
            for ns in warm:
                table.log_regret_many(card, np.array(ns))
        sizes = np.array(sizes, dtype=np.int64)
        got = helper._log_regret_sum(card, sizes)
        want = float(np.add.reduce(lookup.log_regret_many(card, sizes)))
        assert type(got) is float
        assert got.hex() == want.hex()
        # it computes exactly the entries the lookup computes
        assert helper.filled_upto(card) == lookup.filled_upto(card)
        got_values, want_values = helper._values.get(card), lookup._values.get(card)
        assert (got_values is None) == (want_values is None)
        if want_values is not None:
            assert np.array_equal(got_values, want_values, equal_nan=True)
        # and again on the warm table, now a hit
        assert helper._log_regret_sum(card, sizes).hex() == want.hex()

    def test_hit_takes_no_lock(self):
        table = RegretTable()
        table.log_regret_many(4, np.array([0, 9, 30]))
        table._lock = lock = _CountingLock()
        table._log_regret_sum(4, np.array([9, 30, 0, 9]))
        assert lock.taken == 0
        table._log_regret_sum(4, np.array([9, 31]))  # a miss fills under the lock
        assert lock.taken == 1
        assert table.filled_upto(4) == 3

    def test_fresh_table_refuses_what_lookup_refuses(self):
        table = RegretTable()
        with pytest.raises(ValueError):
            table._log_regret_sum(0, np.array([5]))
        with pytest.raises(ValueError):
            table._log_regret_sum(3, np.array([5, -1]))


class TestStochasticComplexity:
    def test_constant_unit_domain(self):
        assert stochastic_complexity(np.zeros(100, dtype=np.int64), 1) == 0.0

    def test_balanced_binary_pair(self):
        got = stochastic_complexity(np.array([0, 1]), 2)
        assert got == pytest.approx(2.0 + math.log2(2.5), abs=1e-12)

    def test_constant_binary_column(self):
        x = np.zeros(4, dtype=np.int64)
        got = stochastic_complexity(x, 2)
        assert got == pytest.approx(brute_force_log_regret(2, 4), abs=1e-12)

    def test_empty(self):
        assert stochastic_complexity(np.zeros(0, dtype=np.int64), 3) == 0.0

    def test_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            card = rng.integers(1, 5)
            x = rng.integers(0, card, size=rng.integers(0, 40))
            assert stochastic_complexity(x, int(card)) >= 0.0


class TestConditionalSc:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 3000), st.integers(0, 2**32 - 1))
    @example(3, 60, 3)
    def test_empty_conditioning_equals_unconditional(self, card, n, seed):
        # one group is the unconditional case, bit for bit
        x = np.random.default_rng(seed).integers(0, card, size=n)
        labels = np.zeros(n, dtype=np.int64)
        assert conditional_sc(x, card, labels).hex() == stochastic_complexity(x, card).hex()

    def test_self_conditioning_leaves_only_regret(self):
        x = np.array([0, 1] * 4)
        labels = x.copy()
        expect = 2 * shared_regrets().log_regret(2, 4)
        assert conditional_sc(x, 2, labels) == pytest.approx(expect, abs=1e-12)

    def test_exhaustive_small_case(self):
        # 3-valued x grouped by an independent binary z: direct per-group evaluation
        rng = np.random.default_rng(11)
        x = rng.integers(0, 3, size=60)
        z = rng.integers(0, 2, size=60)
        expect = 0.0
        for v in (0, 1):
            grp = x[z == v]
            h = len(grp)
            expect += h * plugin_entropy(np.bincount(grp, minlength=3))
            expect += brute_force_log_regret(3, h)
        assert conditional_sc(x, 3, z) == pytest.approx(expect, rel=1e-9)

    def test_decomposition_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 50))
            card = int(rng.integers(1, 5))
            x = rng.integers(0, card, size=n)
            z = rng.integers(0, 3, size=n)
            cells = np.zeros((3, max(card, 1)), dtype=np.int64)
            for xv, zv in zip(x, z):
                cells[zv, xv] += 1
            data_term = 0.0
            for row in cells:
                data_term += row.sum() * plugin_entropy(row)
            labels = np.unique(z, return_inverse=True)[1]
            total = conditional_sc(x, card, labels)
            assert total == data_term + delta(card, labels) or total == pytest.approx(
                data_term + delta(card, labels), abs=1e-9
            )


class TestDelta:
    def test_single_sample(self):
        assert delta(2, np.zeros(1, dtype=np.int64)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_cardinality(self):
        assert delta(1, np.array([0, 0, 1, 2])) == 0.0

    @pytest.mark.parametrize("card", [1, 2, 5])
    def test_sums_the_shared_lookup(self, card):
        labels = np.random.default_rng(card).integers(0, 7, 300)
        want = float(shared_regrets().log_regret_many(card, np.bincount(labels)).sum())
        assert delta(card, labels).hex() == want.hex()

    def test_split_below_merged(self):
        # two groups of 4 cost at most one group of 8 (sub-additivity)
        merged = delta(3, np.zeros(8, dtype=np.int64))
        split = delta(3, np.array([0, 0, 0, 0, 1, 1, 1, 1]))
        assert merged <= split

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_monotone_under_refinement(self, card, n, coarse_k, extra_k, rnd):
        coarse = np.array([rnd.randrange(coarse_k) for _ in range(n)])
        refines = np.array([rnd.randrange(extra_k) for _ in range(n)])
        fine = coarse * extra_k + refines
        coarse = np.unique(coarse, return_inverse=True)[1]
        fine = np.unique(fine, return_inverse=True)[1]
        assert delta(card, coarse) <= delta(card, fine) + 1e-9


class TestGroupLabels:
    def test_empty_cols_single_group(self):
        t = CategoricalTable.from_columns([("a", [0, 1, 0], 2)])
        labels, sizes = group_labels(t, [])
        assert labels.tolist() == [0, 0, 0]
        assert sizes.tolist() == [3]

    def test_joint_grouping_realized_only(self):
        t = CategoricalTable.from_columns(
            [("a", [0, 0, 1, 1], 2), ("b", [0, 0, 0, 2], 3)]
        )
        labels, sizes = group_labels(t, [0, 1])
        assert len(sizes) == 3
        assert sizes.sum() == 4
        assert labels[0] == labels[1]
        assert labels[2] != labels[3]

    def test_matches_unique_path(self):
        rng = np.random.default_rng(19)
        cols = [("x%d" % i, rng.integers(0, 3, size=50), 3) for i in range(4)]
        t = CategoricalTable.from_columns(cols)
        labels_small, sizes_small = group_labels(t, [0, 1, 2, 3])
        stacked = np.stack([t.columns[i] for i in range(4)])
        _, expected_labels, expected_sizes = np.unique(
            stacked, axis=1, return_inverse=True, return_counts=True
        )
        assert sizes_small.tolist() == expected_sizes.tolist()
        assert labels_small.tolist() == expected_labels.ravel().tolist()

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from([1, 2, 3, 4, 1024]), min_size=1, max_size=6),
        st.integers(1, 80),
        st.integers(0, 2 ** 31),
    )
    # joint domains under the 4n + 64 cut, and above it with a wide column mid-list
    @example([2, 3, 4], 60, 1)
    @example([3, 1024, 2, 4], 60, 2)
    @example([2, 2, 2, 2, 2, 2], 5, 3)
    def test_matches_sort_reference_both_sides_of_cut(self, cards, n, seed):
        rng = np.random.default_rng(seed)
        t = CategoricalTable.from_columns(
            [(f"x{i}", rng.integers(0, k, n), k) for i, k in enumerate(cards)]
        )
        cols = list(range(len(cards)))
        labels, sizes = group_labels(t, cols)
        _, expected_labels, expected_sizes = np.unique(
            np.stack([t.columns[c] for c in cols]), axis=1, return_inverse=True, return_counts=True
        )
        np.testing.assert_array_equal(labels, expected_labels.ravel())
        np.testing.assert_array_equal(sizes, expected_sizes)
        # one refinement step from the grouping of every prefix gives the same
        for cut in range(len(cols)):
            refined = refine_labels(t, *group_labels(t, cols[:cut]), cols[cut])
            expect = group_labels(t, cols[: cut + 1])
            np.testing.assert_array_equal(refined[0], expect[0])
            np.testing.assert_array_equal(refined[1], expect[1])


class TestSharedTable:
    def test_shared_instance_is_reused(self):
        assert shared_regrets() is shared_regrets()
        a = shared_regrets().log_regret(2, 10)
        b = shared_regrets().log_regret(2, 10)
        assert a == b
