import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from climb.bif import BayesNet, exact_joint
from climb.citests import CiQuery, sci
from climb.graph import d_separated
from climb.netgen import alarm_network, random_net
from climb.sampling import SampleSpec, derive_seed, dsep_fixture, forward_sample


def two_node_net():
    return BayesNet(
        "pair",
        ("A", "B"),
        {"A": ("0", "1", "2"), "B": ("0", "1")},
        {"A": (), "B": ("A",)},
        {
            "A": np.array([[0.5, 0.3, 0.2]]),
            "B": np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]]),
        },
    )


def deterministic_net():
    return BayesNet(
        "det",
        ("R", "S"),
        {"R": ("0", "1"), "S": ("0", "1")},
        {"R": (), "S": ("R",)},
        {"R": np.array([[0.4, 0.6]]), "S": np.array([[0.0, 1.0], [1.0, 0.0]])},
    )


class TestSampleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(-1)
        with pytest.raises(ValueError):
            SampleSpec(10, noise=1.5)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SampleSpec(10, 0.0, -1)

    def test_derive_seed_is_xor(self):
        assert derive_seed(0b1010, 0b0110) == 0b1100
        assert derive_seed(2 ** 63, 1) == 2 ** 63 + 1


def _forward_sample_reference(net, spec):
    """``forward_sample``'s columns as it drew them from a cumsum of each whole table, kept as the byte reference."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    codes = {}
    for v in net.dag().topological_order():
        cum = np.cumsum(net.cpts[v], axis=1)
        cum[:, -1] = 1.0
        cfg = net.config_index(v, [codes[p] for p in net.parents[v]])
        u = rng.random(spec.n)
        vals = (u[:, None] > cum[cfg]).sum(axis=1).astype(np.int64)
        if spec.noise > 0.0:
            mask = rng.random(spec.n) < spec.noise
            if mask.any():
                vals[mask] = rng.integers(0, net.card(v), size=int(mask.sum()))
        codes[v] = vals
    return [codes[v] for v in net.nodes]


class TestForwardSample:
    @pytest.mark.parametrize("n", [40, 3000])
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("net", [alarm_network, lambda: random_net(16, 0.4, 5, card_range=(1, 5))],
                             ids=["alarm", "random"])
    def test_bytes_match_the_whole_table_reference(self, net, noise, n):
        net = net()
        rows = [net.cpts[v].shape[0] for v in net.nodes]
        # roots draw from their one row; at n = 40 some tables have more rows than the sample
        assert min(rows) == 1 and (max(rows) > n) == (n == 40)
        spec = SampleSpec(n, noise, 8)
        got = forward_sample(net, spec)
        for col, want in zip(got.columns, _forward_sample_reference(net, spec)):
            assert col.dtype == want.dtype and col.tobytes() == want.tobytes()

    def test_peak_memory_is_sample_sized(self):
        # dense-roles' net and sample size: a cumsum of every whole table would add 16 MB
        net = random_net(40, 0.2, 3, card_range=(2, 4))
        tracemalloc.start()
        try:
            forward_sample(net, SampleSpec(2000, 0.0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.1f} MiB beyond the net"

    def test_seed_determinism(self):
        net = two_node_net()
        a = forward_sample(net, SampleSpec(500, 0.25, 42))
        b = forward_sample(net, SampleSpec(500, 0.25, 42))
        assert all(np.array_equal(x, y) for x, y in zip(a.columns, b.columns))

    def test_deterministic_cpts_closure(self):
        table = forward_sample(deterministic_net(), SampleSpec(200, 0.0, 9))
        r = table.columns[table.index_of("R")]
        s = table.columns[table.index_of("S")]
        assert np.array_equal(s, 1 - r)

    def test_noise_stays_in_domain(self):
        table = forward_sample(two_node_net(), SampleSpec(5000, 0.9, 11))
        for col, card in zip(table.columns, table.cards):
            assert col.min() >= 0
            assert col.max() < card

    def test_conditional_frequencies_match_cpt(self):
        net = two_node_net()
        table = forward_sample(net, SampleSpec(50000, 0.0, 15))
        a = table.columns[0]
        b = table.columns[1]
        for av in range(3):
            rows = b[a == av]
            p_hat = rows.mean()  # P(B=1 | A=av)
            p = net.cpts["B"][av, 1]
            sigma = np.sqrt(p * (1 - p) / len(rows))
            assert abs(p_hat - p) < 3 * sigma + 1e-9

    def test_root_marginal_goodness_of_fit(self):
        net = two_node_net()
        table = forward_sample(net, SampleSpec(20000, 0.0, 17))
        counts = np.bincount(table.columns[0], minlength=3)
        stat, p = chisquare(counts, f_exp=np.array([0.5, 0.3, 0.2]) * 20000)
        assert p > 0.001


class TestDsepFixture:
    def test_truth_graph_separations(self):
        _, dag = dsep_fixture(SampleSpec(10, 0.0, 1))
        assert d_separated(dag, "F", "T", ("D", "E"))
        assert not d_separated(dag, "D", "T", ("E", "F"))
        assert not d_separated(dag, "E", "T", ("D", "F"))

    def test_columns_and_reproducibility(self):
        t1, _ = dsep_fixture(SampleSpec(300, 0.4, 77))
        t2, _ = dsep_fixture(SampleSpec(300, 0.4, 77))
        assert t1.names == ("F", "D", "E", "T")
        assert t1.cards == (4, 4, 4, 4)
        assert all(np.array_equal(a, b) for a, b in zip(t1.columns, t2.columns))

    def test_zero_noise_is_functional(self):
        table, _ = dsep_fixture(SampleSpec(500, 0.0, 5))
        f = table.columns[0]
        for j in (1, 2, 3):
            col = table.columns[j]
            for v in range(4):
                vals = np.unique(col[f == v])
                assert len(vals) <= 1

    def test_generating_distribution_information(self):
        """At moderate noise the diamond keeps I(F;T|D,E)=0 but I(D;T|E,F)>0."""
        from climb.netgen import random_net  # local import keeps fixture focus

        spec = SampleSpec(10, 0.3, 123)
        # rebuild the exact fixture net the way dsep_fixture does, then add
        # noise channels analytically: a noisy node is a mixture of its base
        # mechanism and the uniform distribution
        k = 4
        mech = np.random.Generator(np.random.PCG64(spec.seed))
        perm_d = mech.permutation(k)
        perm_e = mech.permutation(k)
        perm_t = mech.permutation(k)

        def noisy(onehot_cpt, p):
            return (1 - p) * onehot_cpt + p / k

        d_cpt = np.zeros((k, k))
        d_cpt[np.arange(k), perm_d] = 1.0
        e_cpt = np.zeros((k, k))
        e_cpt[np.arange(k), perm_e] = 1.0
        t_cpt = np.zeros((k * k, k))
        for d in range(k):
            for e in range(k):
                t_cpt[d * k + e, (d + perm_t[e]) % k] = 1.0
        net = BayesNet(
            "noisy_fixture",
            ("F", "D", "E", "T"),
            {v: ("0", "1", "2", "3") for v in "FDET"},
            {"F": (), "D": ("F",), "E": ("F",), "T": ("D", "E")},
            {
                "F": np.full((1, k), 0.25),
                "D": noisy(d_cpt, spec.noise),
                "E": noisy(e_cpt, spec.noise),
                "T": noisy(t_cpt, spec.noise),
            },
        )
        joint, nodes = exact_joint(net)
        import sys

        sys.path.insert(0, "tests")
        from test_acceptance import _exact_cmi_bits

        assert _exact_cmi_bits(joint, nodes, "F", "T", ("D", "E")) == pytest.approx(0.0, abs=1e-12)
        assert _exact_cmi_bits(joint, nodes, "D", "T", ("E", "F")) > 0.01

    def test_full_noise_looks_independent(self):
        table, _ = dsep_fixture(SampleSpec(20000, 1.0, 31))
        for i in range(4):
            counts = np.bincount(table.columns[i], minlength=4)
            _, p = chisquare(counts)
            assert p > 0.001
        for i in range(4):
            for j in range(i + 1, 4):
                assert sci(CiQuery(i, j, (), table)).independent
