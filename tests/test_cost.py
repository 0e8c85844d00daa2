"""``scripts/cost.py``: its options, its refusals and its blanket figures."""
import importlib.util
import re
from pathlib import Path

import pytest

COST = Path(__file__).resolve().parents[1] / "scripts" / "cost.py"


@pytest.fixture(scope="module")
def cost():
    spec = importlib.util.spec_from_file_location("cost_script", COST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, defaults",
    [
        ("ci", {"sizes": [1000, 5000], "pairs": 100, "repeats": 5, "against": None}),
        ("partition", {"sizes": [6, 10, 12, 14], "repeats": 5, "against": None}),
        ("blanket", {"sizes": [1000, 5000], "replicates": 5, "seed": 202}),
        ("orient", {"sizes": [5000], "repeats": 5, "against": None}),
    ],
)
def test_options_and_defaults(cost, layer, defaults):
    args = vars(cost.parser().parse_args([layer]))
    assert args.pop("layer") == layer and args.pop("run").__name__ == layer
    assert args == defaults


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ci", "--sizes", "0"], "expected integers >= 1, got '0'"),
        (["ci", "--sizes", "200,x"], "expected comma-separated integers, got '200,x'"),
        (["ci", "--pairs", "0"], "expected integers >= 1, got '0'"),
        (["ci", "--repeats", "-1"], "expected integers >= 1, got '-1'"),
        (["ci", "--repeats", "1,2"], "invalid count value: '1,2'"),
        (["ci", "--against", "{empty}"], "no src/climb package under {empty}"),
        (["partition", "--sizes", "4,25"], "expected integers <= 20, the partition cap, got '4,25'"),
        (["partition", "--sizes", "0"], "expected integers >= 1, got '0'"),
        (["partition", "--repeats", "0"], "expected integers >= 1, got '0'"),
        (["blanket", "--sizes", "0"], "expected integers >= 1, got '0'"),
        (["blanket", "--sizes", "200,300,200"], "expected distinct integers, got '200,300,200'"),
        (["blanket", "--replicates", "0"], "expected integers >= 1, got '0'"),
        (["blanket", "--seed", "x"], "invalid int value: 'x'"),
        ([], "the following arguments are required: layer"),
        (["orient", "--sizes", "200,200"], "expected distinct integers, got '200,200'"),
        (["orient", "--against", "{empty}"], "no src/climb package under {empty}"),
        (["partition", "--against", "{empty}"], "no src/climb package under {empty}"),
        (["partition", "--sizes", "4,4", "--against", "."], "expected distinct integers, got '4,4'"),
    ],
)
def test_bad_input_is_a_usage_error(cost, capsys, tmp_path, argv, message):
    with pytest.raises(SystemExit) as exit_:
        cost.main([a.format(empty=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert err.splitlines()[-1].endswith(message.format(empty=tmp_path))


def test_blanket_figures(cost, capsys):
    cost.main(["blanket", "--sizes", "200", "--replicates", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "alarm, sizes = [200], replicates = 1, seed = 202",
        "method          n   logical evaluated  seconds     F1 capped",
    ]
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], r[1], r[2], r[3], r[5], r[6]) for r in rows] == [
        ("climb_sci", "200", "11056", "1036", "0.581", "0"),
        ("pcmb_sci", "200", "25754", "1081", "0.583", "0"),
        ("pcmb_g2", "200", "7594", "1478", "0.341", "0"),
    ]


def test_partition_rows(cost, capsys):
    cost.main(["partition", "--sizes", "3,1", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n = 2000, repeats = 1; us per subset (1e-3 ref per subset)"
    assert [line[:15] for line in lines[1:]] == ["|PC| =  3 warm:", "|PC| =  3 cold:",
                                                 "|PC| =  1 warm:", "|PC| =  1 cold:"]
    assert all(re.fullmatch(r"\|PC\| = +\d+ (warm|cold): +[\d.]+ \( *[\d.]+\)", line)
               for line in lines[1:])


def test_partition_rows_against(cost, capsys):
    root = COST.parents[1]
    cost.main(["partition", "--sizes", "3,1", "--repeats", "2", "--against", str(root)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"n = 2000, repeats = 2; 1e-3 ref per subset: this tree, {root}, median ratio"
    assert [line[:15] for line in lines[1:]] == ["|PC| =  3 warm:", "|PC| =  3 cold:",
                                                 "|PC| =  1 warm:", "|PC| =  1 cold:"]
    assert all(re.fullmatch(r"\|PC\| = +\d+ (warm|cold): +[\d.]+ +[\d.]+ +[\d.]+", line) for line in lines[1:])


def test_ci_rows(cost, capsys):
    cost.main(["ci", "--sizes", "200", "--pairs", "1", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "pairs = 1, repeats = 1; us per query (1e-3 ref per query)",
        "kind     n |z|   B              warm              cold",
    ]
    rows = lines[2:]
    assert len(rows) == 3 * 4 * 3  # kinds x |z| x batch sizes
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [row.split()[:4] for row in rows[:3]] == [["sci", "200", "0", "1"], ["sci", "200", "0", "8"],
                                                     ["sci", "200", "0", "36"]]
    assert all(row.endswith(" -") for row in rows if not row.startswith("sci"))


def test_orient_rows(cost, capsys):
    cost.main(["orient", "--sizes", "300,200", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "repeats = 1; ms per call (ref per call)",
        "     n              warm              cold",
    ]
    assert [line.split()[0] for line in lines[2:]] == ["300", "200"]
    figure = r" +[\d.]+ \( *[\d.]+\)"
    assert all(re.fullmatch(r" +\d+ " + figure * 2, line) for line in lines[2:])
