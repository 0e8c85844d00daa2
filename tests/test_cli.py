import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from climb.bif import BayesNet, serialize_bif
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

    @pytest.mark.parametrize("flag", ["--x", "--y", "--z"])
    def test_unknown_column_exit_code(self, workdir, flag):
        names = {"--x": "T", "--y": "C1", "--z": "S"}
        names[flag] = "Q"
        args = [a for pair in names.items() for a in pair]
        res = run_cli("citest", "--data", workdir / "demo.csv", *args)
        assert res.exit_code == 2
        assert "no column named 'Q'" in res.output

    def test_x_in_z_exit_code(self, workdir):
        res = run_cli("citest", "--data", workdir / "demo.csv", "--x", "T", "--y", "C1", "--z", "S,T")
        assert res.exit_code == 2
        assert "x and y may not appear in the conditioning set" in res.output

    def test_repeated_z_exit_code(self, workdir):
        res = run_cli(
            "citest", "--data", workdir / "demo.csv", "--x", "P1", "--y", "C1", "--z", "T,T", "--test", "g2",
        )
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == ["the conditioning set may not repeat a variable"]


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

    def test_unknown_target_exit_code(self, workdir):
        res = run_cli("mb", "--data", workdir / "demo.csv", "--target", "Q")
        assert res.exit_code == 2
        assert "no column named 'Q'" in res.output


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


class TestOutOfRangeSettings:
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            (["citest", "--x", "T", "--y", "C1", "--test", "cmi"], ["--cutoff", "-1"], "cutoff must be >= 0"),
            (["citest", "--x", "T", "--y", "C1", "--test", "g2"], ["--alpha", "2"], "alpha must lie in (0, 1)"),
            (["mb", "--target", "T", "--test", "cmi"], ["--cutoff", "-1"], "cutoff must be >= 0"),
            (["mb", "--target", "T", "--test", "g2"], ["--alpha", "2"], "alpha must lie in (0, 1)"),
            (["mb", "--target", "T"], ["--max-cond", "-1"], "max_cond must be >= 0"),
            (["mb", "--target", "T"], ["--cap", "-1"], "cap must be >= 0"),
            (["pc", "--test", "g2", "--out", "never.json"], ["--alpha", "2"], "alpha must lie in (0, 1)"),
            (["pc", "--out", "never.json"], ["--max-cond", "-1"], "max_cond must be >= 0"),
        ],
        ids=["citest-cutoff", "citest-alpha", "mb-cutoff", "mb-alpha", "mb-max-cond", "mb-cap", "pc-alpha", "pc-max-cond"],
    )
    def test_rejected_with_exit_code(self, workdir, tmp_path, command, flags, message):
        command = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
        res = run_cli(*command, "--data", workdir / "demo.csv", *flags)
        assert res.exit_code == 2
        assert message in res.output
        assert not (tmp_path / "never.json").exists()


# small, so that a refusal coming only after the suite ran would still be quick
_SMALL_DSEP = ["--replicates", "1", "--sizes", "100", "--tests", "sci"]


# .domains sidecars that are valid JSON of the wrong shape, by file stem
_SIDECARS = {
    "dnum": json.dumps({"a": 5}),
    "darr": json.dumps(["a"]),
    "dstr": json.dumps({"a": "01"}),
    "ddup": json.dumps({"a": ["0", "0", "1"]}),
    "dlab": json.dumps({"b": ["0", 1]}),
}


class TestBadInput:
    @pytest.mark.parametrize(
        "command, message",
        [
            (["citest", "--data", "{short}", "--x", "a", "--y", "b"], "{short}: row 3 has 1 fields, expected 2"),
            (["pc", "--data", "{short}", "--out", "{out}"], "{short}: row 3 has 1 fields, expected 2"),
            (["orient", "--data", "{demo}", "--pdag", "{pdag}", "--out", "{out}"], "unknown node in edge 'T'-'Q'"),
            (["sample", "--bif", "{bif}", "-n", "-1", "--out", "{out}"], "sample count must be >= 0"),
            (["sample", "--bif", "{bif}", "-n", "10", "--noise", "3", "--out", "{out}"],
             "noise fraction must lie in [0, 1]"),
            (["dsep-fixture", "-n", "10", "--noise", "2", "--out", "{out}"], "noise fraction must lie in [0, 1]"),
            (["sample", "--bif", "{bif}", "-n", "10", "--seed", "-1", "--out", "{out}"], "seed must be >= 0"),
            (["dsep-fixture", "-n", "10", "--seed", "-1", "--out", "{out}"], "seed must be >= 0"),
            (["bench", "dsep", "--out-dir", "{out}", "--sizes", "100,x"],
             "--sizes: expected comma-separated integers, got '100,x'"),
            (["bench", "dsep", "--out-dir", "{out}", "--noise", "0,x"],
             "--noise: expected comma-separated numbers, got '0,x'"),
            (["bench", "dsep", "--out-dir", "{out}", "--sizes", ","],
             "--sizes: expected comma-separated integers, got ','"),
            (["bench", "mb", "--out-dir", "{out}", "--bif", "{bif}", "--sizes", ""],
             "--sizes: expected comma-separated integers, got ''"),
            (["bench", "dsep", "--out-dir", "{out}", "--noise", ","],
             "--noise: expected comma-separated numbers, got ','"),
            (["bench", "zero-baseline", "--out-dir", "{out}", "--ky-grid", ","],
             "--ky-grid: expected comma-separated integers, got ','"),
            (["bench", "zero-baseline", "--out-dir", "{out}", "--ky-grid", "0"], "k_y must be >= 1, got 0"),
            (["bench", "zero-baseline", "--out-dir", "{out}", "--ky-grid", "4,-3"], "k_y must be >= 1, got -3"),
            (["bench", "zero-baseline", "--out-dir", "{out}", "-n", "-1"], "n must be >= 0, got -1"),
            (["bench", "dsep", "--out-dir", "{out}", "--tests", ","],
             "--tests: expected comma-separated test kinds, got ','"),
            (["bench", "dsep", "--out-dir", "{out}", "--sizes", "100,100"],
             "--sizes: expected distinct integers, got '100,100'"),
            (["bench", "mb", "--out-dir", "{out}", "--bif", "{bif}", "--sizes", "100,200,100"],
             "--sizes: expected distinct integers, got '100,200,100'"),
            (["bench", "dsep", "--out-dir", "{out}", "--noise", "0,0.0"],
             "--noise: expected distinct numbers, got '0,0.0'"),
            (["bench", "dsep", "--out-dir", "{out}", "--tests", "sci,g2, sci"],
             "--tests: expected distinct test kinds, got 'sci,g2, sci'"),
            (["bench", "zero-baseline", "--out-dir", "{out}", "--ky-grid", "4,4"],
             "--ky-grid: expected distinct integers, got '4,4'"),
            (["sample", "--bif", "{bif}", "-n", "10", "--out", "{out}/x.csv"],
             "[Errno 2] No such file or directory: '{out}/x.csv'"),
            (["bench", "dsep", "--out-dir", "{short}", *_SMALL_DSEP], "--out-dir: {short} is not a directory"),
            (["bench", "dsep", "--out-dir", "{short}/sub", *_SMALL_DSEP], "--out-dir: {short} is not a directory"),
            (["orient", "--data", "{demo}", "--pdag", "{array}", "--out", "{out}"],
             "partial DAG must be a JSON object, got array"),
            (["orient", "--data", "{demo}", "--pdag", "{no_nodes}", "--out", "{out}"],
             "partial DAG has no 'nodes' field"),
            (["orient", "--data", "{demo}", "--pdag", "{no_directed}", "--out", "{out}"],
             "partial DAG edge 0 has no 'directed' field"),
            (["orient", "--data", "{demo}", "--pdag", "{zz}", "--out", "{out}"],
             "partial DAG nodes absent from the data: 'ZZ'"),
            (["orient", "--data", "{demo}", "--pdag", "{not_json}", "--out", "{out}"],
             "{not_json}: Expecting value: line 1 column 1 (char 0)"),
            (["bench", "discovery", "--out-dir", "{out}", "--bif", "{bif}", "--cpdag", "{array}"],
             "partial DAG must be a JSON object, got array"),
            (["citest", "--data", "{sided}", "--x", "a", "--y", "b"],
             "{sidecar}: Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"),
            (["citest", "--data", "{dnum}", "--x", "a", "--y", "b"],
             "{dnum_sidecar}: column 'a' domain must be a JSON array, got number"),
            (["citest", "--data", "{darr}", "--x", "a", "--y", "b"],
             "{darr_sidecar}: the sidecar must be a JSON object, got array"),
            (["citest", "--data", "{dstr}", "--x", "a", "--y", "b"],
             "{dstr_sidecar}: column 'a' domain must be a JSON array, got string"),
            (["citest", "--data", "{ddup}", "--x", "a", "--y", "b"],
             "{ddup_sidecar}: column 'a' repeats the label '0'"),
            (["citest", "--data", "{dlab}", "--x", "a", "--y", "b"],
             "{dlab_sidecar}: column 'b' label 1 must be a JSON string, got number"),
            (["sample", "--bif", "{dup_bif}", "-n", "10", "--out", "{out}"],
             "value 'x' listed twice for 'A' (line 1, column 39)"),
            (["citest", "--data", "{long_field}", "--x", "a", "--y", "b"],
             "field larger than field limit (131072)"),
        ],
        ids=["citest-short-row", "pc-short-row", "orient-unknown-node", "sample-negative-n",
             "sample-noise", "dsep-fixture-noise", "sample-negative-seed", "dsep-fixture-negative-seed",
             "bench-dsep-sizes", "bench-dsep-noise",
             "bench-dsep-sizes-empty", "bench-mb-sizes-empty", "bench-dsep-noise-empty",
             "bench-zero-baseline-ky-grid-empty", "bench-zero-baseline-ky-zero",
             "bench-zero-baseline-ky-negative", "bench-zero-baseline-negative-n", "bench-dsep-tests-empty",
             "bench-dsep-sizes-repeat", "bench-mb-sizes-repeat", "bench-dsep-noise-repeat",
             "bench-dsep-tests-repeat", "bench-zero-baseline-ky-grid-repeat",
             "sample-out-missing-dir", "bench-out-dir-file", "bench-out-dir-under-file",
             "orient-json-array", "orient-no-nodes", "orient-no-directed", "orient-node-not-column",
             "orient-not-json", "bench-discovery-cpdag-array", "csv-domains-not-json",
             "csv-domains-number", "csv-domains-array", "csv-domains-string", "csv-domains-repeat",
             "csv-domains-label-number", "sample-bif-repeated-label", "csv-field-over-limit"],
    )
    def test_one_line_exit_2_nothing_written(self, workdir, tmp_path, command, message):
        inputs = {
            "short.csv": "a,b\n0,1\n1\n",
            "bad.json": json.dumps({"nodes": ["T", "C1"], "edges": [{"a": "T", "b": "Q", "directed": True}]}),
            "array.json": json.dumps([["T", "C1"]]),
            "no_nodes.json": json.dumps({"edges": []}),
            "no_directed.json": json.dumps({"nodes": ["T", "C1"], "edges": [{"a": "T", "b": "C1"}]}),
            "zz.json": json.dumps({"nodes": ["T", "ZZ"], "edges": [{"a": "T", "b": "ZZ", "directed": False}]}),
            "not_json.json": "",
            "sided.csv": "a,b\n0,1\n",
            "sided.domains": "{\n",
            "dup.bif": "variable A { type discrete [ 2 ] { x, x }; }\nprobability ( A ) { table 0.5, 0.5; }\n",
            "long_field.csv": "a,b\n0," + "1" * 140_000 + "\n",
            **{f"{k}.csv": "a,b\n0,1\n" for k in _SIDECARS},
            **{f"{k}.domains": text for k, text in _SIDECARS.items()},
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        paths = {"short": tmp_path / "short.csv", "pdag": tmp_path / "bad.json", "out": tmp_path / "out",
                 "demo": workdir / "demo.csv", "bif": workdir / "demo.bif",
                 "sided": tmp_path / "sided.csv", "sidecar": tmp_path / "sided.domains",
                 "dup_bif": tmp_path / "dup.bif", "long_field": tmp_path / "long_field.csv",
                 **{k: tmp_path / f"{k}.json" for k in ("array", "no_nodes", "no_directed", "zz", "not_json")},
                 **{k: tmp_path / f"{k}.csv" for k in _SIDECARS},
                 **{f"{k}_sidecar": tmp_path / f"{k}.domains" for k in _SIDECARS}}
        res = CliRunner().invoke(main, [a.format(**paths) for a in command])
        assert res.exit_code == 2
        assert res.output == message.format(**paths) + "\n"
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


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


# `climb bench SUITE --help`: the suites share one declaration of their
# common options, and each keeps its own option order and defaults
_BENCH_HELP = {
    "dsep": """\
  --out-dir PATH        [required]
  --replicates INTEGER
  --seed INTEGER
  --sizes TEXT
  --noise TEXT
  --tests TEXT
  --alpha FLOAT
  --cutoff FLOAT
""",
    "mb": """\
  --out-dir PATH        [required]
  --bif PATH            [required]
  --replicates INTEGER
  --seed INTEGER
  --sizes TEXT
  --max-cond INTEGER
""",
    "partition": """\
  --out-dir PATH        [required]
  --bif PATH            [required]
  --replicates INTEGER
  --seed INTEGER
  --sizes TEXT
""",
    "cmb": """\
  --out-dir PATH        [required]
  --bif PATH            [required]
  --replicates INTEGER
  --seed INTEGER
  --sizes TEXT
  --max-cond INTEGER
""",
    "discovery": """\
  --out-dir PATH        [required]
  --bif PATH            [required]
  --replicates INTEGER
  --seed INTEGER
  -n INTEGER
  --max-cond INTEGER
  --alpha FLOAT
  --cpdag PATH          externally produced partial DAG (JSON) to orient as well
""",
    "zero-baseline": """\
  --out-dir PATH        [required]
  --replicates INTEGER
  --seed INTEGER
  -n INTEGER
  --ky-grid TEXT
""",
}
_BENCH_DEFAULTS = {
    "dsep": {"replicates": 50, "seed": 0, "sizes": "100,500,2500"},
    "mb": {"replicates": 5, "seed": 0, "sizes": "1000,5000", "max_cond": 3},
    "partition": {"replicates": 5, "seed": 0, "sizes": "1000,5000"},
    "cmb": {"replicates": 5, "seed": 0, "sizes": "1000,5000", "max_cond": 3},
    "discovery": {"replicates": 5, "seed": 0, "max_cond": 3},
    "zero-baseline": {"replicates": 100, "seed": 0},
}


class TestBench:
    @pytest.mark.parametrize("suite", list(_BENCH_HELP))
    def test_help_pinned(self, suite):
        res = CliRunner().invoke(main, ["bench", suite, "--help"], prog_name="climb", terminal_width=80)
        assert res.exit_code == 0
        assert res.output == (f"Usage: climb bench {suite} [OPTIONS]\n\nOptions:\n{_BENCH_HELP[suite]}"
                              "  --help                Show this message and exit.\n")
        defaults = {p.name: p.default for p in main.commands["bench"].commands[suite].params}
        assert _BENCH_DEFAULTS[suite].items() <= defaults.items()

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

    @pytest.mark.parametrize("second", ["same-file", "same-name"])
    def test_discovery_refuses_a_repeated_network_name(self, workdir, tmp_path, second):
        bif, copy = workdir / "demo.bif", tmp_path / "copy.bif"
        copy.write_bytes(bif.read_bytes())
        other = bif if second == "same-file" else copy
        res = CliRunner().invoke(main, ["bench", "discovery", "--out-dir", str(tmp_path / "out"), "--bif", str(bif),
                                        "--bif", str(other), "-n", "200", "--replicates", "1"])
        assert res.exit_code == 2
        assert res.output == "--bif network name: 'blanket_demo' appears more than once\n"
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "suite, flags, message",
        [
            ("dsep", ["--alpha", "2"], "alpha must lie in (0, 1)"),
            ("dsep", ["--tests", "fisher"], "unknown test kind"),
            ("mb", ["--max-cond", "-1"], "max_cond must be >= 0"),
            ("cmb", ["--max-cond", "-1"], "max_cond must be >= 0"),
            ("discovery", ["--alpha", "2"], "alpha must lie in (0, 1)"),
            ("discovery", ["--max-cond", "-1"], "max_cond must be >= 0"),
            ("dsep", ["--replicates", "0"], "replicates must be >= 1, got 0"),
            ("partition", ["--replicates", "-2"], "replicates must be >= 1, got -2"),
        ],
        ids=["dsep-alpha", "dsep-kind", "mb-max-cond", "cmb-max-cond", "discovery-alpha", "discovery-max-cond",
             "dsep-replicates", "partition-replicates"],
    )
    def test_refused_settings_exit_code(self, workdir, tmp_path, suite, flags, message):
        net = [] if suite == "dsep" else ["--bif", workdir / "demo.bif"]
        size = ["-n", 100] if suite == "discovery" else ["--sizes", 100]
        res = run_cli("bench", suite, "--out-dir", tmp_path / "out", "--replicates", 1, *size, *net, *flags)
        assert res.exit_code == 2
        assert message in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not (tmp_path / "out").exists()


class TestDiscoveryCpdag:
    """``climb bench discovery --cpdag``: scored against the network of its node set, or refused."""

    def test_matching_network_scored(self, workdir, tmp_path):
        cpdag = tmp_path / "truth.json"
        cpdag.write_text(json.dumps(blanket_demo_network().dag().to_json_obj()))
        res = run_cli("bench", "discovery", "--out-dir", tmp_path / "out", "--bif", workdir / "demo.bif",
                      "-n", 200, "--replicates", 1, "--cpdag", cpdag)
        assert res.exit_code == 0
        obj = json.loads((tmp_path / "out" / "discovery.json").read_text())
        assert obj["config"]["external"] == ["blanket_demo"]
        ext = {row["method"]: row for row in obj["rows"] if row["method"].startswith("ext")}
        assert sorted(ext) == ["ext", "ext_climb"]
        assert (ext["ext"]["f1"], ext["ext"]["acyclic"], ext["ext_climb"]["undirected"]) == (1.0, True, 0)

    def test_no_matching_network_refused(self, workdir, tmp_path):
        cpdag = tmp_path / "other.json"
        cpdag.write_text(json.dumps({"nodes": ["T", "ZZ"], "edges": [{"a": "T", "b": "ZZ", "directed": True}]}))
        res = CliRunner().invoke(main, ["bench", "discovery", "--out-dir", str(tmp_path / "out"),
                                        "--bif", str(workdir / "demo.bif"), "--cpdag", str(cpdag)])
        assert res.exit_code == 2
        assert res.output == "external partial DAG matches no supplied network\n"
        assert not (tmp_path / "out").exists()


def test_sample_a_long_chain(tmp_path):
    # 1,200 nodes in a directed path: ordering them must not recurse once per node
    nodes = tuple(f"X{i:04d}" for i in range(1200))
    cpt = np.array([[0.3, 0.7], [0.6, 0.4]])
    net = BayesNet("chain", nodes, {v: ("a", "b") for v in nodes},
                   {v: nodes[i - 1:i] for i, v in enumerate(nodes)},
                   {v: cpt if i else np.array([[0.5, 0.5]]) for i, v in enumerate(nodes)})
    (tmp_path / "chain.bif").write_text(serialize_bif(net))
    res = run_cli("sample", "--bif", tmp_path / "chain.bif", "-n", 10, "--out", tmp_path / "chain.csv")
    assert res.exit_code == 0
    assert (tmp_path / "chain.csv").read_text().splitlines()[0] == ",".join(nodes)


def test_bench_exits_2_after_writing_its_files(tmp_path):
    # a hub with 21 children: its parents-and-children set is one above the cap
    kids = tuple(f"C{i:02d}" for i in range(21))
    nodes = ("H",) + kids
    net = BayesNet("hub", nodes, {v: ("a", "b") for v in nodes}, {"H": (), **{c: ("H",) for c in kids}},
                   {"H": np.array([[0.5, 0.5]]), **{c: np.array([[0.8, 0.2], [0.3, 0.7]]) for c in kids}})
    (tmp_path / "hub.bif").write_text(serialize_bif(net))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["bench", "partition", "--out-dir", str(out), "--bif", str(tmp_path / "hub.bif"),
                                    "--sizes", "200", "--replicates", "1"])
    assert res.exit_code == 2
    assert "1 recorded failures" in res.output
    failures = json.loads((out / "partition.json").read_text())["failures"]
    assert [f["node"] for f in failures] == ["H"]
    assert (out / "partition_rows.csv").exists()
