import json

import numpy as np
import pytest

from climb.bench import (
    ExperimentResult,
    aggregate_rows,
    run_causal_discovery,
    run_cmb_benchmark,
    run_dsep_benchmark,
    run_mb_benchmark,
    run_partition_benchmark,
    run_zero_baseline,
)
from climb.graph import PDag
from climb.netgen import blanket_demo_network, random_net


class TestAggregation:
    def test_mean_and_sd(self):
        rows = [
            {"g": "a", "x": 1.0},
            {"g": "a", "x": 3.0},
            {"g": "b", "x": 5.0},
        ]
        out = aggregate_rows(rows, ("g",))
        a = next(r for r in out if r["g"] == "a")
        assert a["count"] == 2
        assert a["x_mean"] == 2.0
        assert a["x_sd"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
        b = next(r for r in out if r["g"] == "b")
        assert b["x_sd"] == 0.0

    def test_aggregates_recomputable_from_rows(self):
        result = run_dsep_benchmark(ns=(100,), noises=(0.0, 0.5), replicates=4, seed=3)
        again = aggregate_rows(result.rows, result.group_keys)
        assert again == result.aggregates

    def test_none_left_out_of_mean_and_sd(self):
        rows = [{"g": "a", "x": None}, {"g": "a", "x": 1.0}, {"g": "a", "x": 3.0}, {"g": "b", "x": None}]
        out = aggregate_rows(rows, ("g",))
        a = next(r for r in out if r["g"] == "a")
        assert (a["count"], a["x_mean"]) == (3, 2.0)
        assert a["x_sd"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
        b = next(r for r in out if r["g"] == "b")
        assert b["x_mean"] is None and b["x_sd"] is None

    def test_bools_are_not_averaged(self):
        rows = [{"g": "a", "flag": True, "x": 1.0}]
        out = aggregate_rows(rows, ("g",))
        assert "flag_mean" not in out[0]


class TestDsepBenchmark:
    def test_rates_in_unit_interval(self):
        result = run_dsep_benchmark(ns=(200,), noises=(0.3,), replicates=5, seed=11)
        for row in result.rows:
            for key in ("tpr", "fpr", "accuracy_mean3", "accuracy_balanced"):
                assert 0.0 <= row[key] <= 1.0

    def test_cell_lookup(self):
        result = run_dsep_benchmark(ns=(100, 200), noises=(0.2,), replicates=2, seed=1)
        cell = result.cell(n=100, noise=0.2, test="sci")
        assert cell["count"] == 2
        with pytest.raises(KeyError):
            result.cell(n=999)

    def test_distinct_streams_per_cell(self):
        result = run_dsep_benchmark(ns=(100, 200), noises=(0.2,), replicates=2, seed=1)
        seeds = {row["seed"] for row in result.rows}
        assert len(seeds) == 4  # two cells x two replicates


class TestMbBenchmark:
    def test_orders_and_counts(self):
        net = blanket_demo_network()
        result = run_mb_benchmark(net, sizes=(800,), replicates=2, seed=5)
        for method in ("pcmb_g2", "pcmb_sci", "climb_sci"):
            cell = result.cell(n=800, method=method)
            assert 0.0 <= cell["f1_mean"] <= 1.0
            assert cell["tests_mean"] > 0
        climb_tests = result.cell(n=800, method="climb_sci")["tests_mean"]
        pcmb_tests = result.cell(n=800, method="pcmb_sci")["tests_mean"]
        assert climb_tests < pcmb_tests

    def test_partition_cap_failures_recorded(self):
        net = blanket_demo_network()
        result = run_mb_benchmark(
            net, sizes=(400,), replicates=1, seed=5, cap=0, methods=("climb_sci",)
        )
        assert result.failures
        assert all(f["method"] == "climb_sci" for f in result.failures)
        assert sum(row["failed_nodes"] for row in result.rows) == len(result.failures)


class TestPartitionBenchmark:
    def test_accuracy_range(self):
        net = blanket_demo_network()
        result = run_partition_benchmark(net, sizes=(500,), replicates=3, seed=9)
        cell = result.cell(n=500)
        assert 0.0 <= cell["accuracy_mean"] <= 1.0
        assert cell["count"] == 3


class TestCmbBenchmark:
    def test_methods_present(self):
        net = blanket_demo_network()
        result = run_cmb_benchmark(net, sizes=(600,), replicates=1, seed=2)
        for method in ("climb", "pc"):
            cell = result.cell(n=600, method=method)
            assert 0.0 <= cell["precision_mean"] <= 1.0


class TestDiscovery:
    def test_methods_and_external(self):
        net = blanket_demo_network()
        truth = net.dag()
        result = run_causal_discovery(
            [net], n=1500, replicates=1, seed=4, external_cpdags={net.name: truth}
        )
        methods = {row["method"] for row in result.rows}
        assert methods == {"pc_g2", "pc_climb", "pc_sci", "pc_sci_climb", "ext", "ext_climb"}
        ext = result.cell(net=net.name, n=1500, method="ext")
        assert ext["f1_mean"] == 1.0  # the external graph fed in was the truth
        climbed = result.cell(net=net.name, n=1500, method="pc_climb")
        assert climbed["undirected_mean"] == 0.0


class TestZeroBaseline:
    def test_identical_column_scores_near_one(self):
        # direct check of the normalization on a fully dependent pair
        from climb.citests import CiQuery, sci
        from climb.nml import plugin_entropy
        from climb.table import CategoricalTable

        rng = np.random.default_rng(6)
        x = rng.integers(0, 4, 1000)
        t = CategoricalTable(("X", "Y"), (x, x.copy()), (4, 4))
        hx = plugin_entropy(np.bincount(x, minlength=4))
        stat = sci(CiQuery(0, 1, (), t)).statistic
        assert max(stat, 0.0) / (1000 * hx) > 0.9

    def test_rows_and_zero_share(self):
        result = run_zero_baseline(ky_grid=(1, 16), n=300, replicates=10, seed=12)
        cell = result.cell(k_y=1)
        assert cell["sci_zero_mean"] == 1.0
        for row in result.rows:
            assert row["f_sci"] >= 0.0
            assert row["f_plugin"] >= 0.0


class TestReplicates:
    @pytest.mark.parametrize("replicates", [0, -2])
    @pytest.mark.parametrize(
        "run",
        [
            lambda r: run_dsep_benchmark((100,), (0.0,), r),
            lambda r: run_mb_benchmark(blanket_demo_network(), (100,), r),
            lambda r: run_partition_benchmark(blanket_demo_network(), (100,), r),
            lambda r: run_cmb_benchmark(blanket_demo_network(), (100,), r),
            lambda r: run_causal_discovery([blanket_demo_network()], 100, r),
            lambda r: run_zero_baseline((1,), 100, r),
        ],
        ids=["dsep", "mb", "partition", "cmb", "discovery", "zero-baseline"],
    )
    def test_fewer_than_one_refused(self, run, replicates):
        with pytest.raises(ValueError, match=f"replicates must be >= 1, got {replicates}"):
            run(replicates)


class TestRepeatedValues:
    """A repeated grid value would fold two runs of its cell into one aggregate."""

    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda: run_dsep_benchmark((100, 100), (0.0,), 2, ("sci",)), "ns: 100 appears more than once"),
            (lambda: run_dsep_benchmark((100,), (0.0, 0.3, 0.0), 2), "noises: 0.0 appears more than once"),
            (lambda: run_dsep_benchmark((100,), (0.0,), 2, ("sci", "sci")),
             "tests: 'sci' appears more than once"),
            (lambda: run_mb_benchmark(blanket_demo_network(), (300, 300), 1), "sizes: 300 appears more than once"),
            (lambda: run_mb_benchmark(blanket_demo_network(), (300,), 1, methods=("climb_sci", "climb_sci")),
             "methods: 'climb_sci' appears more than once"),
            (lambda: run_partition_benchmark(blanket_demo_network(), (200, 200), 1),
             "sizes: 200 appears more than once"),
            (lambda: run_cmb_benchmark(blanket_demo_network(), (200, 200), 1), "sizes: 200 appears more than once"),
            (lambda: run_zero_baseline((4, 4), n=50, replicates=2), "ky_grid: 4 appears more than once"),
            (lambda: run_causal_discovery((blanket_demo_network(), blanket_demo_network(seed=4)), 200, 1),
             "nets: 'blanket_demo' appears more than once"),
            (lambda: run_mb_benchmark(blanket_demo_network(), (300,), 1, methods=("clmb_sci",)),
             "methods: 'clmb_sci' is not climb_<kind> or pcmb_<kind> with a kind of sci, g2 or cmi"),
            (lambda: run_mb_benchmark(blanket_demo_network(), (300,), 1, methods=("climb_sci", "climb_fisher")),
             "methods: 'climb_fisher' is not climb_<kind> or pcmb_<kind> with a kind of sci, g2 or cmi"),
            (lambda: run_mb_benchmark(blanket_demo_network(), (300,), 1, methods=("pcmb",)),
             "methods: 'pcmb' is not climb_<kind> or pcmb_<kind> with a kind of sci, g2 or cmi"),
        ],
        ids=["dsep-ns", "dsep-noises", "dsep-tests", "mb-sizes", "mb-methods", "partition-sizes",
             "cmb-sizes", "zero-baseline-ky-grid", "discovery-nets", "mb-unknown-search",
             "mb-unknown-kind", "mb-no-kind"],
    )
    def test_refused_before_any_replicate(self, monkeypatch, run, message):
        def no_stream(*args):
            raise AssertionError("a replicate stream was drawn")

        monkeypatch.setattr("climb.bench.derive_seed", no_stream)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run()


@pytest.mark.parametrize(
    "kwargs, message",
    [({"ky_grid": (4, 0)}, "k_y must be >= 1, got 0"), ({"kx": 0}, "kx must be >= 1, got 0"),
     ({"n": -1}, "n must be >= 0, got -1")],
    ids=["k_y", "kx", "n"],
)
def test_zero_baseline_refuses_a_bad_grid(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_zero_baseline(**{"ky_grid": (1,), "n": 100, "replicates": 1, **kwargs})


class TestWriting:
    def test_files_and_json_shape(self, tmp_path):
        result = run_dsep_benchmark(ns=(100,), noises=(0.0,), replicates=2, seed=7)
        jpath, cpath = result.write(tmp_path)
        obj = json.loads(jpath.read_text())
        assert set(obj) == {"experiment", "config", "rows", "aggregates", "failures"}
        header = cpath.read_text().splitlines()[0]
        assert "accuracy_balanced" in header

    @pytest.mark.parametrize("runner", ["mb", "partition", "cmb"])
    def test_fully_capped_replicate_is_strict_json_null(self, tmp_path, runner):
        # cap 0 refuses every node whose found parents-and-children set is
        # not empty; the mb and cmb runs use nets in which every node has a
        # true neighbour, and at these sizes and seeds CLIMB finds one for
        # every node; row 0 and aggregate 0 of cmb are its climb ones
        if runner == "cmb":
            net = random_net(5, 1.0, 3)
            result = run_cmb_benchmark(net, (2000,), 1, seed=2, cap=0)
            fields = ("f1", "precision", "recall")
            assert result.rows[0]["method"] == "climb"
            assert len(result.failures) == len(net.nodes)
        elif runner == "mb":
            net = random_net(6, 0.5, seed=2)
            dag = net.dag()
            assert all(dag.parents(v) | dag.children(v) for v in net.nodes)
            result = run_mb_benchmark(net, sizes=(600,), replicates=1, seed=7, cap=0, methods=("climb_sci",))
            fields = ("f1", "precision", "recall")
            assert result.rows[0]["failed_nodes"] == len(net.nodes)
        else:
            net = blanket_demo_network()
            result = run_partition_benchmark(net, sizes=(300,), replicates=1, seed=9, cap=0)
            fields = ("accuracy",)
        jpath, _ = result.write(tmp_path)

        def refuse(token):
            raise AssertionError(f"non-standard JSON token {token}")

        obj = json.loads(jpath.read_text(), parse_constant=refuse)
        assert all(obj["rows"][0][f] is None for f in fields)
        assert all(obj["aggregates"][0][f"{f}_mean"] is None for f in fields)

    def test_rerun_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("x", "y"):
            r = run_zero_baseline(ky_grid=(4,), n=100, replicates=3, seed=21)
            paths = r.write(tmp_path / sub)
            blobs.append(tuple(p.read_bytes() for p in paths))
        assert blobs[0] == blobs[1]
