"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy experiment results are shared through session fixtures. Every
tolerance is pinned here; the suite is deterministic given the seeds below.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from climb.bench import (
    run_causal_discovery,
    run_cmb_benchmark,
    run_dsep_benchmark,
    run_mb_benchmark,
    run_partition_benchmark,
    run_zero_baseline,
)
from climb.bif import exact_joint
from climb.citests import CiQuery, sci
from climb.graph import d_separated
from climb.netgen import alarm_network, random_net
from climb.nml import RegretTable, delta
from climb.table import CategoricalTable

from test_nml import brute_force_log_regret

SEEDS = {
    "dsep": 101,
    "mb": 202,
    "partition": 303,
    "cmb": 404,
    "discovery": 505,
    "zero": 606,
    "convergence": 707,
    "oracle": 808,
}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def alarm():
    return alarm_network()


@pytest.fixture(scope="session")
def dsep_result():
    return run_dsep_benchmark(
        ns=(100, 500, 2500), noises=(0.0, 0.3, 0.6), replicates=50, seed=SEEDS["dsep"]
    )


@pytest.fixture(scope="session")
def mb_result(alarm):
    return run_mb_benchmark(alarm, sizes=(1000, 5000), replicates=5, seed=SEEDS["mb"])


@pytest.fixture(scope="session")
def partition_result(alarm):
    return run_partition_benchmark(alarm, sizes=(1000, 5000), replicates=5, seed=SEEDS["partition"])


@pytest.fixture(scope="session")
def cmb_result(alarm):
    return run_cmb_benchmark(alarm, sizes=(1000, 5000), replicates=5, seed=SEEDS["cmb"])


@pytest.fixture(scope="session")
def discovery_result(alarm):
    return run_causal_discovery([alarm], n=5000, replicates=5, seed=SEEDS["discovery"])


@pytest.fixture(scope="session")
def zero_result():
    return run_zero_baseline(
        ky_grid=(1, 4, 16, 64, 256, 1024), n=1000, replicates=100, seed=SEEDS["zero"]
    )


def test_criterion_01_regret_oracle():
    start = time.time()
    table = RegretTable()
    worst = 0.0
    for card in (2, 3, 4):
        for n in range(17):
            expected = brute_force_log_regret(card, n)
            got = table.log_regret(card, n)
            err = abs(got - expected) / max(abs(expected), 1e-12) if expected else abs(got)
            worst = max(worst, err)
    elapsed = time.time() - start
    _report(
        1,
        "regret matches brute-force enumeration",
        worst < 1e-9 and elapsed < 10,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_concavity_and_monotonicity():
    start = time.time()
    table = RegretTable()
    concave_ok = True
    for card in range(2, 11):
        vals = table.log_regret_many(card, np.arange(1001))
        steps = np.diff(vals)
        if not np.all(np.diff(steps) <= 1e-9):
            concave_ok = False
    rng = np.random.default_rng(13)
    mono_violations = 0
    for _ in range(1000):
        card = int(rng.integers(2, 6))
        n = int(rng.integers(1, 60))
        coarse = rng.integers(0, rng.integers(1, 5), size=n)
        fine = coarse * 4 + rng.integers(0, rng.integers(1, 5), size=n)
        coarse = np.unique(coarse, return_inverse=True)[1]
        fine = np.unique(fine, return_inverse=True)[1]
        if delta(card, coarse) > delta(card, fine) + 1e-9:
            mono_violations += 1
    elapsed = time.time() - start
    _report(
        2,
        "log-concavity and refinement monotonicity",
        concave_ok and mono_violations == 0 and elapsed < 30,
        f"violations {mono_violations}, {elapsed:.1f}s",
    )


TRUE_MI_BITS = 0.2780719051126377  # 1 - H(0.2) for the fixed 80/20 binary channel


def test_criterion_03_convergence_to_mutual_information():
    start = time.time()
    assert round(TRUE_MI_BITS, 4) == 0.2781
    sizes = (100, 1000, 10_000, 100_000)
    gaps = []
    for n in sizes:
        per_seed = []
        for s in range(20):
            rng = np.random.default_rng((SEEDS["convergence"], n, s))
            x = rng.integers(0, 2, size=n)
            keep = rng.random(n) < 0.8
            y = np.where(keep, x, 1 - x)
            table = CategoricalTable(("x", "y"), (x, y), (2, 2))
            stat = sci(CiQuery(0, 1, (), table)).statistic
            per_seed.append(abs(stat / n - TRUE_MI_BITS))
        gaps.append(float(np.mean(per_seed)))
    monotone = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    elapsed = time.time() - start
    _report(
        3,
        "statistic per sample converges to the true information",
        gaps[-1] < 0.01 and monotone and elapsed < 120,
        f"gaps {[round(g, 4) for g in gaps]}, {elapsed:.0f}s",
    )


def test_criterion_04_dsep_benchmark_sci_and_g2(dsep_result):
    # the fixture is fully deterministic at zero noise, so at that level every
    # independence holds in distribution and only the independence verdict is
    # attainable; the accuracy threshold binds at the positive noise level
    ok = True
    details = []
    for n in (500, 2500):
        cell = dsep_result.cell(n=n, noise=0.3, test="sci")
        details.append(f"sci n={n} acc={cell['accuracy_balanced_mean']:.3f}")
        ok &= cell["accuracy_balanced_mean"] >= 0.9 and cell["accuracy_mean3_mean"] >= 0.9
    for n in (500, 2500):
        cell = dsep_result.cell(n=n, noise=0.0, test="sci")
        ok &= cell["tpr_mean"] >= 0.9
    g2_indep = []
    for noise in (0.0, 0.3, 0.6):
        cell = dsep_result.cell(n=100, noise=noise, test="g2")
        g2_indep.append(cell["fpr_mean"])
    ok &= all(v >= 0.8 for v in g2_indep)
    details.append(f"g2@100 indep rates {[round(v, 2) for v in g2_indep]}")
    _report(4, "fixture benchmark: sci accurate, g2 blind when starved", ok, "; ".join(details))


def test_criterion_05_cmi_near_random(dsep_result):
    accs = []
    for n in (100, 500, 2500):
        for noise in (0.0, 0.3, 0.6):
            accs.append(dsep_result.cell(n=n, noise=noise, test="cmi")["accuracy_balanced_mean"])
    _report(
        5,
        "zero-cutoff mutual information is near random",
        all(a <= 0.6 for a in accs),
        f"balanced accuracies {[round(a, 2) for a in accs]}",
    )


def test_criterion_06_mb_f1_and_test_counts(mb_result):
    ok = True
    details = []
    for n in (1000, 5000):
        f_sci = mb_result.cell(n=n, method="pcmb_sci")["f1_mean"]
        f_g2 = mb_result.cell(n=n, method="pcmb_g2")["f1_mean"]
        t_climb = mb_result.cell(n=n, method="climb_sci")["tests_mean"]
        t_sci = mb_result.cell(n=n, method="pcmb_sci")["tests_mean"]
        ok &= f_sci >= f_g2
        ok &= t_climb <= 0.5 * t_sci
        details.append(
            f"n={n}: F1 sci/g2 {f_sci:.3f}/{f_g2:.3f}, tests climb/sci {t_climb:.0f}/{t_sci:.0f}"
        )
    ok &= not mb_result.failures
    # count dominance must also hold replicate by replicate
    by_key = {(r["n"], r["method"], r["replicate"]): r["tests"] for r in mb_result.rows}
    for n in (1000, 5000):
        for rep in range(5):
            ok &= by_key[(n, "climb_sci", rep)] <= by_key[(n, "pcmb_sci", rep)]
    _report(6, "blanket F1 ordering and test budget", ok, "; ".join(details))


def test_criterion_07_partition_accuracy(partition_result):
    a1 = partition_result.cell(n=1000)["accuracy_mean"]
    a5 = partition_result.cell(n=5000)["accuracy_mean"]
    ok = a1 >= 0.75 and a5 >= a1 - 0.03
    _report(7, "role accuracy given true neighbourhoods", ok, f"{a1:.3f} -> {a5:.3f}")


def test_criterion_08_directed_blanket_precision(cmb_result):
    ok = True
    details = []
    for n in (1000, 5000):
        p_climb = cmb_result.cell(n=n, method="climb")["precision_mean"]
        p_pc = cmb_result.cell(n=n, method="pc")["precision_mean"]
        ok &= p_climb > p_pc
        details.append(f"n={n}: {p_climb:.3f} vs {p_pc:.3f}")
    _report(8, "directed-blanket precision beats PC extraction", ok, "; ".join(details))


def test_criterion_09_discovery_f1(discovery_result):
    f_pc = discovery_result.cell(method="pc_g2")["f1_mean"]
    f_climb = discovery_result.cell(method="pc_climb")["f1_mean"]
    f_sci = discovery_result.cell(method="pc_sci")["f1_mean"]
    ok = f_climb >= f_pc + 0.05 and f_sci > f_pc
    _report(
        9,
        "orientation gain and test choice on directed edges",
        ok,
        f"pc={f_pc:.3f} pc_climb={f_climb:.3f} pc_sci={f_sci:.3f}",
    )


def test_criterion_10_zero_baseline(zero_result):
    ok = True
    shares = {}
    for ky in (1, 4, 16, 64, 256, 1024):
        share = zero_result.cell(k_y=ky)["sci_zero_mean"]
        shares[ky] = share
        ok &= share >= 0.95
    plugin_top = zero_result.cell(k_y=1024)["f_plugin_mean"]
    ok &= plugin_top > 0.5
    _report(
        10,
        "no spurious association under growing domains",
        ok,
        f"zero shares {shares}, plug-in at 1024: {plugin_top:.2f}",
    )


def _exact_cmi_bits(joint, nodes, x, y, z):
    axes = {v: i for i, v in enumerate(nodes)}
    keep = [axes[v] for v in (x, y, *z)]
    drop = tuple(i for i in range(joint.ndim) if i not in keep)
    p = joint.sum(axis=drop) if drop else joint
    # after the marginalization the surviving axes sit in original order;
    # transpose them into (x, y, z...) position
    p = np.transpose(p, axes=np.argsort(np.argsort(keep)))
    p = p.reshape(p.shape[0], p.shape[1], -1)
    total = 0.0
    for k in range(p.shape[2]):
        block = p[:, :, k]
        pz = block.sum()
        if pz <= 0:
            continue
        px = block.sum(axis=1, keepdims=True)
        py = block.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(block > 0, block * pz / (px * py), 1.0)
        total += (block * np.log2(ratio)).sum()
    return total


def test_criterion_11_dsep_oracle_vs_exact_information():
    start = time.time()
    rng = np.random.default_rng(SEEDS["oracle"])
    disagreements = 0
    for case in range(200):
        n_nodes = int(rng.integers(3, 6))
        net = random_net(
            n_nodes, edge_prob=0.5, seed=int(rng.integers(1 << 31)), concentration=2.0
        )
        joint, nodes = exact_joint(net)
        dag = net.dag()
        x, y = rng.choice(nodes, size=2, replace=False)
        rest = [v for v in nodes if v not in (x, y)]
        z = tuple(rng.choice(rest, size=int(rng.integers(0, len(rest) + 1)), replace=False))
        graphical = d_separated(dag, x, y, z)
        informational = _exact_cmi_bits(joint, nodes, x, y, z) < 1e-9
        if graphical != informational:
            disagreements += 1
    elapsed = time.time() - start
    _report(
        11,
        "graphical separation matches exact information",
        disagreements == 0 and elapsed < 300,
        f"{disagreements} disagreements over 200 cases, {elapsed:.0f}s",
    )


def test_criterion_12_determinism(tmp_path):
    outputs = []
    for attempt in ("a", "b"):
        d = tmp_path / attempt
        r1 = run_dsep_benchmark(ns=(100,), noises=(0.0, 0.5), replicates=3, seed=99)
        r2 = run_zero_baseline(ky_grid=(1, 16), n=200, replicates=5, seed=98)
        paths = [*r1.write(d), *r2.write(d)]
        outputs.append([p.read_bytes() for p in sorted(paths)])
    ok = outputs[0] == outputs[1]
    _report(12, "identical configuration reproduces byte-identical files", ok)
