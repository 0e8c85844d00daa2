import json
import re

import pytest
from click.testing import CliRunner

from climb.bif import serialize_bif
from climb.cli import main
from climb.csvio import write_csv
from climb.netgen import blanket_demo_network
from climb.sampling import SampleSpec, forward_sample


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    net = blanket_demo_network()
    (root / "demo.bif").write_text(serialize_bif(net))
    table = forward_sample(net, SampleSpec(4000, 0.0, 5))
    write_csv(table, root / "demo.csv", labels={v: list(net.labels[v]) for v in net.nodes})
    return root


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)


class TestCitest:
    def test_sci_json(self, workdir):
        res = run_cli("citest", "--data", workdir / "demo.csv", "--x", "T", "--y", "C1", "--test", "sci")
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["independent"] is False
        assert obj["p_value"] is None

    def test_g2_conditional(self, workdir):
        res = run_cli(
            "citest", "--data", workdir / "demo.csv", "--x", "P1", "--y", "C1",
            "--z", "T", "--test", "g2", "--alpha", "0.01",
        )
        obj = json.loads(res.output)
        assert obj["independent"] is True
        assert 0.0 <= obj["p_value"] <= 1.0

    def test_z_echoes_parsed_names(self, workdir):
        res = run_cli(
            "citest", "--data", workdir / "demo.csv", "--x", "P1", "--y", "C1", "--z", "T, S,",
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["z"] == ["S", "T"]


class TestMb:
    def test_blanket_json(self, workdir):
        res = run_cli("mb", "--data", workdir / "demo.csv", "--target", "T", "--test", "sci")
        assert res.exit_code == 0
        obj = json.loads(res.output)
        assert obj["parents"] == ["P1", "P2", "P3"]
        assert obj["children"] == ["C1", "C2"]
        assert obj["spouses"] == ["S"]
        assert obj["tests_performed"] > 0
        assert 0 < obj["tests_evaluated"] < obj["tests_performed"]


class TestPcAndOrient:
    def test_pipeline(self, workdir, tmp_path):
        pdag_path = tmp_path / "pdag.json"
        res = run_cli("pc", "--data", workdir / "demo.csv", "--test", "sci", "--out", pdag_path)
        assert res.exit_code == 0
        assert re.search(r"\((\d+) tests, \1 evaluated\)", res.output)  # stable PC never repeats a query
        obj = json.loads(pdag_path.read_text())
        assert set(obj) == {"nodes", "edges"}
        dag_path = tmp_path / "dag.json"
        res = run_cli("orient", "--data", workdir / "demo.csv", "--pdag", pdag_path, "--out", dag_path)
        assert res.exit_code == 0
        out = json.loads(dag_path.read_text())
        assert all(e["directed"] for e in out["edges"])


class TestSampling:
    def test_sample_deterministic(self, workdir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            res = run_cli("sample", "--bif", workdir / "demo.bif", "-n", 100, "--noise", 0.2, "--seed", 9, "--out", path)
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_parse_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.bif"
        bad.write_text("variable X {")
        res = CliRunner().invoke(
            main, ["sample", "--bif", str(bad), "-n", "10", "--out", str(tmp_path / "x.csv")]
        )
        assert res.exit_code == 2

    def test_dsep_fixture_csv(self, tmp_path):
        out = tmp_path / "fix.csv"
        res = run_cli("dsep-fixture", "-n", 50, "--noise", 0.3, "--seed", 4, "--out", out)
        assert res.exit_code == 0
        assert out.read_text().splitlines()[0] == "F,D,E,T"


class TestBench:
    def test_dsep_bench_writes_files(self, tmp_path):
        res = run_cli(
            "bench", "dsep", "--out-dir", tmp_path, "--replicates", 2,
            "--sizes", "100", "--noise", "0.4", "--tests", "sci",
        )
        assert res.exit_code == 0
        assert (tmp_path / "dsep.json").exists()
        assert (tmp_path / "dsep_rows.csv").exists()

    def test_zero_baseline_bench(self, tmp_path):
        res = run_cli(
            "bench", "zero-baseline", "--out-dir", tmp_path, "--replicates", 3,
            "-n", 100, "--ky-grid", "1,4",
        )
        assert res.exit_code == 0
        obj = json.loads((tmp_path / "zero_baseline.json").read_text())
        assert obj["config"]["ky_grid"] == [1, 4]

    def test_mb_bench_cap_failure_exit_code(self, workdir, tmp_path):
        res = CliRunner().invoke(
            main,
            [
                "bench", "mb", "--out-dir", str(tmp_path), "--bif", str(workdir / "demo.bif"),
                "--replicates", "1", "--sizes", "300",
            ],
        )
        assert res.exit_code == 0
        res = CliRunner().invoke(
            main,
            [
                "bench", "partition", "--out-dir", str(tmp_path), "--bif", str(workdir / "demo.bif"),
                "--replicates", "1", "--sizes", "200",
            ],
        )
        assert res.exit_code == 0
