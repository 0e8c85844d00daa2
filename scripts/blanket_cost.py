#!/usr/bin/env python3
"""Cost and accuracy of each blanket method on the acceptance ``mb`` fixture.

The fixture is the alarm network sampled at n = 1000 and 5000, five
replicates each from base seed 202, with the replicate streams of
``climb bench mb``. Every method runs over all 37 targets of a replicate on
a fresh test object of its own (the bench shares one per kind), so its
counts are its own. Per method and size the script prints logical tests
(every query asked), evaluated tests (queries that computed a statistic,
i.e. memo misses), seconds spent in the search and the mean undirected
blanket F1 over targets and replicates. Sampling is not timed. A target that
CLIMB's partition cap refuses is counted under ``capped`` and left out of the
F1. Run from the repo root:

    PYTHONPATH=src python scripts/blanket_cost.py
"""
import argparse
import statistics
import time

from climb.bench import _streams, _truth_roles
from climb.blanket import PartitionCapError, climb, pcmb
from climb.citests import make_test
from climb.graph import set_metrics
from climb.netgen import alarm_network
from climb.sampling import SampleSpec, forward_sample

METHODS = ("climb_sci", "pcmb_sci", "pcmb_g2")
MAX_COND = 3


def blanket(method: str, data, target: int, test) -> set[int]:
    if method.startswith("climb"):
        res = climb(data, target, test, MAX_COND)
        return set(res.parents | res.children | res.spouses)
    return set(pcmb(data, target, test, MAX_COND)[0])


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--sizes", default="1000,5000", help="comma-separated sample sizes")
    ap.add_argument("--replicates", default=5, type=int, help="replicates per size")
    ap.add_argument("--seed", default=202, type=int, help="base seed of the replicate streams")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    net = alarm_network()
    dag = net.dag()
    truth = {v: set().union(*_truth_roles(dag, v).values()) for v in net.nodes}
    totals = {
        (m, n): {"logical": 0, "evaluated": 0, "seconds": 0.0, "f1": [], "capped": 0}
        for m in METHODS
        for n in sizes
    }
    for n, _, rep_seed in _streams(args.seed, args.replicates, sizes):
        data = forward_sample(net, SampleSpec(n, 0.0, rep_seed))
        for method in METHODS:
            test = make_test(data, method.split("_")[-1])
            cell = totals[method, n]
            start = time.perf_counter()
            for v in net.nodes:
                try:
                    got = blanket(method, data, data.index_of(v), test)
                except PartitionCapError:
                    cell["capped"] += 1
                    continue
                cell["f1"].append(set_metrics({data.names[i] for i in got}, truth[v])[2])
            cell["seconds"] += time.perf_counter() - start
            cell["logical"] += test.count
            cell["evaluated"] += test.evaluated

    print(f"{net.name}, sizes = {sizes}, replicates = {args.replicates}, seed = {args.seed}")
    print(f"{'method':10s} {'n':>6s} {'logical':>9s} {'evaluated':>9s} {'seconds':>8s} {'F1':>6s} {'capped':>6s}")
    for (method, n), c in totals.items():
        f1 = f"{statistics.fmean(c['f1']):6.3f}" if c["f1"] else f"{'-':>6s}"
        print(f"{method:10s} {n:6d} {c['logical']:9d} {c['evaluated']:9d} {c['seconds']:8.2f} {f1} {c['capped']:6d}")


if __name__ == "__main__":
    main()
