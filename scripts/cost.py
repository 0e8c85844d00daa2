#!/usr/bin/env python3
"""Cost of ``climb``'s layers: CI queries, partition search, blanket search.

Each subcommand times one layer on fixed seeds and prints one row per
setting; ``cost.py <layer> --help`` says what a row holds.

    ci         seconds per evaluated CI query, by test kind, |z|, batch size and n
    orient     seconds per ``climb_orient`` on a random network's true skeleton, by n
    partition  seconds per subset of ``find_best_partition``, by |PC|
    blanket    tests, seconds and F1 of each blanket method on the ``mb`` fixture

The ``ci``, ``orient`` and ``partition`` figures are also given in
host-speed units: a run's seconds divided by the ``reference_s`` of
``perfbench/workloads.py`` (a fixed mix of interpreter work and small numpy
calls, taken as the faster of two back-to-back runs, as ``perfbench/run.py``
takes it), sampled before and after every run, times 1000 for ``ci`` and
``partition``. On a host whose speed drifts these compare across runs
better than seconds do. Run from the repo root:

    PYTHONPATH=src python scripts/cost.py ci [--sizes 1000,5000] [--against ROOT]
    PYTHONPATH=src python scripts/cost.py orient [--sizes 5000] [--against ROOT]
    PYTHONPATH=src python scripts/cost.py partition [--sizes 6,10,12,14] [--against ROOT]
    PYTHONPATH=src python scripts/cost.py blanket [--sizes 1000,5000]
"""
import argparse
import importlib.util
import inspect
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import climb
from climb.bench import _blankets, _roles, _samples
from climb.netgen import alarm_network

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import reference_s  # noqa: E402

CAP = inspect.signature(climb.find_best_partition).parameters["cap"].default
KINDS = ("sci", "g2", "cmi")
Z_SIZES = (0, 1, 2, 3)
PARTITION_N = 2000
METHODS = ("climb_sci", "pcmb_sci", "pcmb_g2")
MAX_COND = 3


def host_s() -> float:
    """One host-speed sample in seconds."""
    return min(reference_s(), reference_s())


def timed(call) -> tuple[float, float]:
    """Seconds one ``call()`` takes, and the same over the host-speed samples around it."""
    before = host_s()
    start = time.perf_counter()
    call()
    spent = time.perf_counter() - start
    return spent, spent / ((before + host_s()) / 2)


# -- ci ----------------------------------------------------------------------


def load_tree(root: Path):
    """The ``climb`` package under ``root/src``, imported as ``climb_against``."""
    package = root / "src" / "climb"
    spec = importlib.util.spec_from_file_location("climb_against", package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sample(tree, n: int):
    """The alarm network sampled at ``n`` rows by ``tree``'s own modules."""
    netgen = importlib.import_module(f"{tree.__name__}.netgen")
    return tree.forward_sample(netgen.alarm_network(), tree.SampleSpec(n, 0.0, 0))


def batches(m: int, size: int, width: int, pairs: int) -> list[tuple[int, list[int], tuple[int, ...]]]:
    """``pairs`` random (x, ys, z) with |z| = ``size`` and up to ``width`` ys."""
    rng = np.random.default_rng(1)
    picks = [[int(v) for v in rng.permutation(m)] for _ in range(pairs)]
    return [(pick[0], pick[1 + size:][:width], tuple(pick[1:1 + size])) for pick in picks]


def per_query(tree, data, kind: str, asked, regrets) -> tuple[float, float]:
    """Seconds and reference units per evaluated query for one run of ``asked``."""
    test = tree.make_test(data, kind, regrets=regrets)
    spent, ref = timed(lambda: [test.many(x, ys, z) for x, ys, z in asked])
    return spent / test.evaluated, ref / test.evaluated


def column(trees, measure, repeats: int, scale: float = 1e6, ref_scale: float = 1e3) -> str:
    """One figure: this tree's, or with ``--against`` both trees' and their ratio.

    ``measure(t)`` runs tree ``t`` once and returns its seconds and reference
    units, which print times ``scale`` and ``ref_scale``.
    """
    runs: list[list[tuple[float, float]]] = [[] for _ in trees]
    for r in range(repeats):
        for t in range(len(trees))[:: 1 if r % 2 == 0 else -1]:
            runs[t].append(measure(t))
    refs = [statistics.median(ref for _, ref in tree_runs) * ref_scale for tree_runs in runs]
    if len(trees) == 1:
        return f"{statistics.median(s for s, _ in runs[0]) * scale:7.1f} ({refs[0]:6.2f})"
    ratio = statistics.median(a[1] / b[1] for a, b in zip(*runs))
    return f"{refs[0]:6.2f} {refs[1]:6.2f} {ratio:5.2f}"


def warm_cold(trees, measure, repeats: int, *scales: float, cold: bool = True) -> list[str | None]:
    """The warm and the cold figure of ``measure``, as :func:`column` prints them.

    ``measure(t, regrets)`` runs tree ``t`` once on the regret table
    ``regrets`` and returns its seconds and reference units. Warm runs share
    one table per tree that one untimed run filled; cold runs each start from
    an empty one, so they include the regret fill. Without ``cold`` the cold
    figure is ``None`` and nothing runs for it.
    """
    warm = [tree.nml.RegretTable() for tree in trees]
    for t, regrets in enumerate(warm):
        measure(t, regrets)  # fills the warm table
    return [column(trees, lambda t: measure(t, trees[t].nml.RegretTable() if fresh else warm[t]), repeats, *scales)
            if cold or not fresh else None for fresh in (False, True)]


def compared(against: Path | None, unit: str, ref_unit: str) -> tuple[list, str, int]:
    """The trees to time, the unit line and the column width, with or without ``--against``."""
    if against is None:
        return [climb], f"{unit} ({ref_unit})", 16
    return [climb, load_tree(against)], f"{ref_unit}: this tree, {against}, median ratio", 19


def ci(args) -> None:
    """Cost of one evaluated CI query, by test kind, |z|, batch size and n.

    The data are the alarm network sampled at each ``--sizes`` n (seed 0). A
    row draws ``--pairs`` random (x, z) with |z| = 0-3 (numpy seed 1), asks
    each with ``IndependenceTest.many`` against B other columns (B = 1, 8 and
    m - 1, or as many as are left outside x and z) on a fresh test, and
    divides the time by the queries evaluated. Every figure is the median
    over ``--repeats`` runs, in microseconds and in 1e-3 host-speed units.
    ``warm`` runs share a regret table that one untimed run filled; ``cold``
    runs each start from an empty one, so they include the regret fill. G²
    and CMI read no regret table and have no cold column.

    ``--against ROOT`` compares with the ``climb`` of another checkout at ROOT
    (for example a ``git archive`` of the parent commit), imported side by
    side in the same process. Each repeat then runs both trees back to back,
    in alternating order, and a column shows the reference units of this
    tree, of the other and the median of the per-repeat ratios (this /
    other). Two runs of the script, one per tree, do not cancel the host's
    drift for the small rows.
    """
    trees, unit, pad = compared(args.against, "us per query", "1e-3 ref per query")
    print(f"pairs = {args.pairs}, repeats = {args.repeats}; {unit}")
    print(f"{'kind':4} {'n':>5} {'|z|':>3} {'B':>3}  {'warm':>{pad}}  {'cold':>{pad}}")
    for n in args.sizes:
        datas = [sample(tree, n) for tree in trees]
        m = datas[0].m
        for kind in KINDS:
            for size in Z_SIZES:
                for width in (1, 8, m - 1):
                    asked = batches(m, size, width, args.pairs)
                    warm, cold = warm_cold(trees, lambda t, rt: per_query(trees[t], datas[t], kind, asked, rt),
                                           args.repeats, cold=kind == "sci")
                    print(f"{kind:4} {n:5d} {size:3d} {min(width, m - 1 - size):3d}  {warm}  {cold or '-'.rjust(pad)}")


# -- orient ------------------------------------------------------------------


def true_skeleton(tree, n: int):
    """The orient network sampled at ``n`` rows (seed 0) by ``tree``'s own modules, and its skeleton."""
    netgen = importlib.import_module(f"{tree.__name__}.netgen")
    net = netgen.random_net(100, 0.04, 1, card_range=(2, 4))
    skeleton = tree.PDag(net.nodes)
    for a, b in net.dag().directed_edges():
        skeleton.add_undirected(a, b)
    return tree.forward_sample(net, tree.SampleSpec(n, 0.0, 0)), skeleton


def orient(args) -> None:
    """Cost of one ``climb_orient`` call on the true skeleton of a random network.

    The network is ``random_net(100, 0.04, 1, card_range=(2, 4))``, the one
    perfbench's ``random-pc`` orients, sampled at each ``--sizes`` n (seed
    0); every edge of its DAG is left undirected, so each call prices every
    edge. Every figure is the median over ``--repeats`` calls, in
    milliseconds and in host-speed units. ``warm`` calls share a regret
    table that one untimed call filled; ``cold`` calls each start from an
    empty one, so they include the regret fill. ``--against ROOT`` compares
    with the ``climb`` of another checkout, as ``ci`` does.
    """
    trees, unit, pad = compared(args.against, "ms per call", "ref per call")
    print(f"repeats = {args.repeats}; {unit}")
    print(f"{'n':>6}  {'warm':>{pad}}  {'cold':>{pad}}")
    for n in args.sizes:
        inputs = [true_skeleton(tree, n) for tree in trees]

        def call(t: int, regrets) -> tuple[float, float]:
            data, skeleton = inputs[t]
            return timed(lambda: trees[t].climb_orient(skeleton, data, regrets))

        warm, cold = warm_cold(trees, call, args.repeats, 1e3, 1.0)
        print(f"{n:6d}  {warm}  {cold}")


# -- partition ---------------------------------------------------------------


def partition_table(tree, members: int):
    """A target and ``members`` uniform columns of 2-4 values (numpy seed 0), as ``tree``'s table."""
    rng = np.random.default_rng(0)
    cols = []
    for i in range(1 + members):
        card = int(rng.integers(2, 5))
        cols.append((f"v{i:02d}", rng.integers(0, card, PARTITION_N), card))
    return tree.CategoricalTable.from_columns(cols)


def partition(args) -> None:
    """Median cost of partition search per subset, by parents-and-children size.

    The data are n = 2000 rows of uniform columns with 2-4 values each (numpy
    seed 0): one target and as many members as the largest size asked for, of
    which a search at |PC| = k uses the first k. Each size prints two rows,
    each the median over ``--repeats`` searches of ``find_best_partition``
    divided by its 2^k subsets, in microseconds and in 1e-3 host-speed units.
    ``warm`` searches share a regret table that one untimed search filled;
    ``cold`` searches each start from an empty one, so they include the
    regret fill. Sizes above the search's default cap are refused.
    ``--against ROOT`` compares with the ``climb`` of another checkout, as
    ``ci`` does.
    """
    trees, unit, _ = compared(args.against, "us per subset", "1e-3 ref per subset")
    tables = [partition_table(tree, max(args.sizes)) for tree in trees]
    print(f"n = {PARTITION_N}, repeats = {args.repeats}; {unit}")
    for k in args.sizes:
        pc = set(range(1, k + 1))

        def search(t: int, regrets) -> tuple[float, float]:
            spent, ref = timed(lambda: trees[t].find_best_partition(tables[t], 0, pc, regrets=regrets))
            return spent / 2 ** k, ref / 2 ** k

        for label, figure in zip(("warm", "cold"), warm_cold(trees, search, args.repeats)):
            print(f"|PC| = {k:2d} {label}: {figure}")


# -- blanket -----------------------------------------------------------------


def blanket(args) -> None:
    """Cost and accuracy of each blanket method on the acceptance ``mb`` fixture.

    The fixture is the alarm network sampled at n = 1000 and 5000, five
    replicates each from base seed 202, with the replicate streams of
    ``climb bench mb``. Every method runs over all 37 targets of a replicate
    on a fresh test object of its own, as in the bench, so its counts are its
    own. Per method and size the command prints logical tests
    (every query asked), evaluated tests (queries that computed a statistic,
    i.e. memo misses), seconds spent in the search and the mean undirected
    blanket F1 over targets and replicates. Sampling is not timed. A target
    that CLIMB's partition cap refuses is counted under ``capped`` and left
    out of the F1.
    """
    net = alarm_network()
    dag = net.dag()
    truth = {v: set().union(*_roles(dag, v).values()) for v in net.nodes}
    totals = {(m, n): {"logical": 0, "evaluated": 0, "seconds": 0.0, "f1": [], "capped": 0}
              for m in METHODS for n in args.sizes}
    for n, _, _, data in _samples(net, args.sizes, args.replicates, args.seed):
        for method in METHODS:
            test = climb.make_test(data, method.split("_")[-1])
            cell = totals[method, n]
            start = time.perf_counter()
            found = _blankets(method, net, data, test, MAX_COND, CAP, [])
            cell["seconds"] += time.perf_counter() - start
            cell["f1"] += [climb.set_metrics(got, truth[v])[2] for v, got in found.items()]
            cell["capped"] += len(net.nodes) - len(found)
            cell["logical"] += test.count
            cell["evaluated"] += test.evaluated

    print(f"{net.name}, sizes = {args.sizes}, replicates = {args.replicates}, seed = {args.seed}")
    print(f"{'method':10s} {'n':>6s} {'logical':>9s} {'evaluated':>9s} {'seconds':>8s} {'F1':>6s} {'capped':>6s}")
    for (method, n), c in totals.items():
        f1 = f"{statistics.fmean(c['f1']):6.3f}" if c["f1"] else f"{'-':>6s}"
        print(f"{method:10s} {n:6d} {c['logical']:9d} {c['evaluated']:9d} {c['seconds']:8.2f} {f1} {c['capped']:6d}")


# -- command line ------------------------------------------------------------


def integers(text: str, high: float = float("inf")) -> list[int]:
    """Distinct comma-separated integers, each at least 1 and at most ``high``.

    A repeated size would add a second replicate stream into the same
    ``blanket`` row, whose header still names one.
    """
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected integers >= 1, got {text!r}")
    if max(values) > high:
        raise argparse.ArgumentTypeError(f"expected integers <= {high}, the partition cap, got {text!r}")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected distinct integers, got {text!r}")
    return values


def count(text: str) -> int:
    """One integer of at least 1."""
    (value,) = integers(text)
    return value


def checkout(text: str) -> Path:
    """The root of a checkout that holds a ``src/climb`` package."""
    if not (Path(text) / "src" / "climb" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no src/climb package under {text}")
    return Path(text)


def parser() -> argparse.ArgumentParser:
    raw = argparse.RawDescriptionHelpFormatter
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=raw)
    layers = ap.add_subparsers(dest="layer", required=True)

    def layer(run, sizes: str, sizes_help: str, high: float = float("inf"), compare: bool = True):
        """A subcommand; a warm/cold one also takes ``--repeats`` and ``--against``."""
        sub = layers.add_parser(run.__name__, description=inspect.getdoc(run), formatter_class=raw)
        sub.add_argument("--sizes", default=sizes, type=lambda text: integers(text, high), help=sizes_help)
        if compare:
            sub.add_argument("--repeats", default=5, type=count, help="timed runs per figure (and tree)")
            sub.add_argument("--against", type=checkout, help="root of another checkout to alternate with")
        sub.set_defaults(run=run)
        return sub

    sub = layer(ci, "1000,5000", "comma-separated sample sizes")
    sub.add_argument("--pairs", default=100, type=count, help="(x, z) pairs per row")
    layer(orient, "5000", "comma-separated sample sizes")
    layer(partition, "6,10,12,14", "comma-separated |PC| sizes", CAP)
    sub = layer(blanket, "1000,5000", "comma-separated sample sizes", compare=False)
    sub.add_argument("--replicates", default=5, type=count, help="replicates per size")
    sub.add_argument("--seed", default=202, type=int, help="base seed of the replicate streams")
    return ap


def main(argv: list[str] | None = None) -> None:
    args = parser().parse_args(argv)
    args.run(args)


if __name__ == "__main__":
    main()
