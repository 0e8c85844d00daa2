#!/usr/bin/env python3
"""Median cost of partition search per subset, by parents-and-children size.

The data are n = 2000 rows of uniform columns with 2-4 values each (numpy
seed 0): one target and as many members as the largest size asked for, of
which a search at |PC| = k uses the first k. Each row of output is the
median over ``--repeats`` searches of ``find_best_partition`` divided by its
2^k subsets, with the regret table warmed by one untimed search first. Each
figure is also given in host-speed units: the search's seconds divided by
the ``reference_s`` of ``perfbench/workloads.py`` (a fixed mix of interpreter
work and small numpy calls, sampled before and after every search), times
1000, which cancels most of a drifting host's speed. Run from the repo root:

    PYTHONPATH=src python scripts/partition_cost.py [--sizes 6,10,12,14]
"""
import argparse
import statistics
import time

import numpy as np

from climb.blanket import find_best_partition
from climb.nml import RegretTable
from climb.table import CategoricalTable
from hostspeed import host_s

N = 2000


def make_table(members: int) -> CategoricalTable:
    rng = np.random.default_rng(0)
    cols = []
    for i in range(1 + members):
        card = int(rng.integers(2, 5))
        cols.append((f"v{i:02d}", rng.integers(0, card, N), card))
    return CategoricalTable.from_columns(cols)


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--sizes", default="6,10,12,14", help="comma-separated |PC| sizes")
    ap.add_argument("--repeats", default=5, type=int, help="timed searches per size")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < 0 or args.repeats < 1:
        ap.error("--sizes must be >= 0 and --repeats >= 1")

    table = make_table(max(sizes))
    regrets = RegretTable()
    print(f"n = {N}, repeats = {args.repeats}")
    for k in sizes:
        pc = set(range(1, k + 1))
        find_best_partition(table, 0, pc, regrets=regrets)  # warms the regret table
        runs, refs = [], []
        for _ in range(args.repeats):
            before = host_s()
            start = time.perf_counter()
            find_best_partition(table, 0, pc, regrets=regrets)
            runs.append(time.perf_counter() - start)
            refs.append(runs[-1] / ((before + host_s()) / 2))
        print(
            f"|PC| = {k:2d}: {statistics.median(runs) / 2 ** k * 1e6:7.1f} us"
            f" ({statistics.median(refs) / 2 ** k * 1e3:6.3f} 1e-3 ref) per subset"
        )


if __name__ == "__main__":
    main()
