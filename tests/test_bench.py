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
from climb.netgen import blanket_demo_network


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


class TestWriting:
    def test_files_and_json_shape(self, tmp_path):
        result = run_dsep_benchmark(ns=(100,), noises=(0.0,), replicates=2, seed=7)
        jpath, cpath = result.write(tmp_path)
        obj = json.loads(jpath.read_text())
        assert set(obj) == {"experiment", "config", "rows", "aggregates", "failures"}
        header = cpath.read_text().splitlines()[0]
        assert "accuracy_balanced" in header

    def test_rerun_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("x", "y"):
            r = run_zero_baseline(ky_grid=(4,), n=100, replicates=3, seed=21)
            paths = r.write(tmp_path / sub)
            blobs.append(tuple(p.read_bytes() for p in paths))
        assert blobs[0] == blobs[1]
