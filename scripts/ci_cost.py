#!/usr/bin/env python3
"""Cost of one evaluated CI query, by test kind, |z|, batch size and n.

The data are the alarm network sampled at each ``--sizes`` n (seed 0). A
row draws ``--pairs`` random (x, z) with |z| = 0-3 (numpy seed 1), asks each
with ``IndependenceTest.many`` against B other columns (B = 1, 8 and
m - 1, or as many as are left outside x and z) on a fresh test, and divides
the time by the queries evaluated. Every figure is the median over
``--repeats`` runs. ``warm`` runs share a regret table that one untimed run
filled; ``cold`` runs each start from an empty one, so they include the
regret fill. G² and CMI read no regret table and have no cold column.

Each figure is also given in host-speed units: the run's seconds divided by
the ``reference_s`` of ``perfbench/workloads.py`` (a fixed mix of interpreter
work and small numpy calls, sampled before and after every run), times
1000. On a host whose speed drifts these compare across runs better than
microseconds do.

``--against ROOT`` compares with the ``climb`` of another checkout at ROOT
(for example a ``git archive`` of the parent commit), imported side by side
in the same process. Each repeat then runs both trees back to back, in
alternating order, and a column shows the reference units of this tree, of
the other and the median of the per-repeat ratios (this / other). Two runs
of the script, one per tree, do not cancel the host's drift for the small
rows. Run from the repo root:

    PYTHONPATH=src python scripts/ci_cost.py [--sizes 1000,5000] [--against ROOT]
"""
import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import climb
from hostspeed import host_s

KINDS = ("sci", "g2", "cmi")
Z_SIZES = (0, 1, 2, 3)


def load_tree(root: Path):
    """The ``climb`` package under ``root/src``, imported as ``climb_against``."""
    package = root / "src" / "climb"
    spec = importlib.util.spec_from_file_location(
        "climb_against", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sample(tree, n: int):
    """The alarm network sampled at ``n`` rows by ``tree``'s own modules."""
    sampling = importlib.import_module(f"{tree.__name__}.sampling")
    netgen = importlib.import_module(f"{tree.__name__}.netgen")
    return sampling.forward_sample(netgen.alarm_network(), sampling.SampleSpec(n, 0.0, 0))


def batches(m: int, size: int, width: int, pairs: int) -> list[tuple[int, list[int], tuple[int, ...]]]:
    """``pairs`` random (x, ys, z) with |z| = ``size`` and up to ``width`` ys."""
    rng = np.random.default_rng(1)
    out = []
    for _ in range(pairs):
        pick = [int(v) for v in rng.permutation(m)]
        x, z, rest = pick[0], tuple(pick[1:1 + size]), pick[1 + size:]
        out.append((x, rest[:width], z))
    return out


def timed(tree, data, kind: str, asked, regrets) -> tuple[float, float]:
    """Seconds and reference units per evaluated query for one run of ``asked``."""
    test = tree.make_test(data, kind, regrets=regrets)
    before = host_s()
    start = time.perf_counter()
    for x, ys, z in asked:
        test.many(x, ys, z)
    spent = (time.perf_counter() - start) / test.evaluated
    return spent, spent / ((before + host_s()) / 2)


def column(trees, datas, kind: str, asked, cold: bool, warm_tables, repeats: int) -> str:
    """One figure: this tree's, or with ``--against`` both trees' and their ratio."""
    runs: list[list[tuple[float, float]]] = [[] for _ in trees]
    for r in range(repeats):
        for t in range(len(trees))[:: 1 if r % 2 == 0 else -1]:
            tree = trees[t]
            regrets = tree.nml.RegretTable() if cold else warm_tables[t]
            runs[t].append(timed(tree, datas[t], kind, asked, regrets))
    refs = [statistics.median(ref for _, ref in tree_runs) * 1e3 for tree_runs in runs]
    if len(trees) == 1:
        return f"{statistics.median(s for s, _ in runs[0]) * 1e6:7.1f} ({refs[0]:6.2f})"
    ratio = statistics.median(a[1] / b[1] for a, b in zip(*runs))
    return f"{refs[0]:6.2f} {refs[1]:6.2f} {ratio:5.2f}"


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--sizes", default="1000,5000", help="comma-separated sample sizes")
    ap.add_argument("--pairs", default=100, type=int, help="(x, z) pairs per row")
    ap.add_argument("--repeats", default=5, type=int, help="timed runs per figure (and tree)")
    ap.add_argument("--against", type=Path, help="root of another checkout to alternate with")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < 1 or args.pairs < 1 or args.repeats < 1:
        ap.error("--sizes, --pairs and --repeats must be >= 1")
    trees = [climb]
    if args.against is not None:
        if not (args.against / "src" / "climb" / "__init__.py").is_file():
            ap.error(f"--against: no src/climb package under {args.against}")
        trees.append(load_tree(args.against))

    if len(trees) == 1:
        print(f"pairs = {args.pairs}, repeats = {args.repeats}; us per query (1e-3 ref per query)")
        head = f"{'warm':>16}  {'cold':>16}"
    else:
        print(f"pairs = {args.pairs}, repeats = {args.repeats}; 1e-3 ref per query:"
              f" this tree, {args.against}, median ratio")
        head = f"{'warm':>19}  {'cold':>19}"
    print(f"{'kind':4} {'n':>5} {'|z|':>3} {'B':>3}  {head}")
    for n in sizes:
        datas = [sample(tree, n) for tree in trees]
        m = datas[0].m
        for kind in KINDS:
            for size in Z_SIZES:
                for width in (1, 8, m - 1):
                    asked = batches(m, size, width, args.pairs)
                    warm_tables = [tree.nml.RegretTable() for tree in trees]
                    for tree, data, table in zip(trees, datas, warm_tables):
                        timed(tree, data, kind, asked, table)  # fills the warm table
                    cols = [
                        column(trees, datas, kind, asked, cold, warm_tables, args.repeats)
                        if kind == "sci" or not cold else "-".rjust(len(head) // 2 - 1)
                        for cold in (False, True)
                    ]
                    print(f"{kind:4} {n:5d} {size:3d} {min(width, m - 1 - size):3d}  {cols[0]}  {cols[1]}")


if __name__ == "__main__":
    main()
