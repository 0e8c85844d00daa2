"""Benchmark harness: seeded experiments with reproducible result files.

Every experiment is a pure function of its configuration and base seed.
Replicate streams derive as base XOR a running counter over the cells and
replicates (cell-major, see :func:`_streams`), so reruns are byte-identical
and cells never share a stream. Results carry the full per-replicate rows
plus mean and standard deviation aggregates that are recomputable from the
rows.
"""
from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bif import BayesNet
from .blanket import PartitionCapError, climb, find_best_partition, pcmb
from .citests import IndependenceTest, make_test
from .graph import (
    PDag,
    climb_orient,
    directed_edge_metrics,
    mb_set_metrics,
    orient_cpdag,
    pc_stable_skeleton,
    set_metrics,
)
from .nml import conditional_sc, plugin_entropy, stochastic_complexity
from .sampling import SampleSpec, derive_seed, dsep_fixture, forward_sample
from .table import CategoricalTable, group_labels

__all__ = [
    "ExperimentResult",
    "aggregate_rows",
    "run_dsep_benchmark",
    "run_mb_benchmark",
    "run_partition_benchmark",
    "run_cmb_benchmark",
    "run_causal_discovery",
    "run_zero_baseline",
]


@dataclass
class ExperimentResult:
    experiment: str
    config: dict
    rows: list[dict]
    group_keys: tuple[str, ...]
    failures: list[dict] = field(default_factory=list)
    aggregates: list[dict] = field(init=False)

    def __post_init__(self) -> None:
        self.aggregates = aggregate_rows(self.rows, self.group_keys)

    def to_json_obj(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "rows": self.rows,
            "aggregates": self.aggregates,
            "failures": self.failures,
        }

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        jpath = out_dir / f"{self.experiment}.json"
        cpath = out_dir / f"{self.experiment}_rows.csv"
        jpath.write_text(json.dumps(self.to_json_obj(), indent=2, sort_keys=True, allow_nan=False) + "\n")
        with open(cpath, "w", newline="") as fh:
            if self.rows:
                cols = sorted(self.rows[0])
                writer = csv.DictWriter(fh, fieldnames=cols)
                writer.writeheader()
                writer.writerows(self.rows)
        return jpath, cpath

    def cell(self, **match) -> dict:
        """The single aggregate row matching the given key fields."""
        hits = [a for a in self.aggregates if all(a.get(k) == v for k, v in match.items())]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} aggregate rows match {match}")
        return hits[0]


def aggregate_rows(rows: Sequence[Mapping], group_keys: Sequence[str]) -> list[dict]:
    """Mean and sample standard deviation of every numeric field per group.

    A ``None`` value (a replicate with nothing to score) is left out of its
    field's mean and deviation; a field with no value at all gets ``None``.
    """
    groups: dict[tuple, list[Mapping]] = {}
    for row in rows:
        key = tuple(row[k] for k in group_keys)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        agg: dict = dict(zip(group_keys, key))
        agg["count"] = len(members)
        metric_keys = [
            k
            for k in members[0]
            if k not in group_keys and _numeric_or_none(members[0][k])
        ]
        for mk in metric_keys:
            vals = [float(m[mk]) for m in members if m[mk] is not None]
            if not vals:
                mean = sd = None
            else:
                mean = sum(vals) / len(vals)
                if len(vals) > 1:
                    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
                    sd = math.sqrt(var)
                else:
                    sd = 0.0
            agg[f"{mk}_mean"] = mean
            agg[f"{mk}_sd"] = sd
        out.append(agg)
    return out


def _numeric_or_none(value) -> bool:
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool))


def _mean_or_none(values: Sequence[float]) -> float | None:
    """Mean of ``values``, or ``None`` (JSON ``null``) when there are none."""
    return float(np.mean(values)) if len(values) else None


def _streams(seed: int, replicates: int, *axes: Iterable) -> Iterator[tuple]:
    """``(*cell, replicate, stream_seed)`` over the grid of ``axes``.

    Cells run in ``itertools.product`` order and every cell's replicates run
    before the next cell's; the i-th pair gets ``derive_seed(seed, i)``.
    Fewer than one replicate is refused with ``ValueError`` at the call,
    before any replicate runs.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    grid = enumerate(product(*axes, range(replicates)))
    return ((*cell, rep, derive_seed(seed, i)) for i, (*cell, rep) in grid)


def _distinct(**params: Iterable) -> None:
    """Refuse, with ``ValueError``, a value that one of ``params`` lists twice.

    A repeated value would run its cell twice and fold both runs into one
    aggregate, whose ``count`` would then be twice ``replicates``.
    """
    for param, values in params.items():
        for value, times in Counter(values).items():
            if times > 1:
                raise ValueError(f"{param}: {value!r} appears more than once")


def _samples(net: BayesNet, sizes: Sequence[int], replicates: int, seed: int) -> Iterator[tuple]:
    """``(n, replicate, stream_seed, data)`` over :func:`_streams` of ``sizes``.

    ``data`` holds ``n`` noise-free rows forward-sampled from ``net`` on the
    replicate's stream. Fewer than one replicate is refused at the call.
    """
    return ((n, rep, rep_seed, forward_sample(net, SampleSpec(n, 0.0, rep_seed)))
            for n, rep, rep_seed in _streams(seed, replicates, sizes))


def _roles(g: PDag, v: str) -> dict[str, set[str]]:
    """Role readout of ``v`` from a partial DAG.

    Parents, children and spouses follow the directed edges of ``g``;
    ``undecided`` holds the undirected neighbours in no other role, so it is
    empty on a DAG.
    """
    pa, ch = g.parents(v), g.children(v)
    sp = set().union(*(g.parents(c) for c in ch)) - {v} - pa - ch
    return {"parents": pa, "children": ch, "spouses": sp,
            "undecided": g.undirected_neighbors(v) - pa - ch - sp}


# -- independence-test benchmark on the diamond fixture ----------------------


def run_dsep_benchmark(
    ns: Sequence[int],
    noises: Sequence[float],
    replicates: int,
    tests: Sequence[str] = ("sci", "g2", "cmi"),
    seed: int = 0,
    alpha: float = 0.01,
    cutoff: float = 0.0,
) -> ExperimentResult:
    """Correctness of the three fixture decisions per cell of the grid.

    Per replicate there is one true-independence check (the far pair given
    the two middle nodes) and two true-dependence checks. Rows carry each
    indicator, their plain mean, and the balanced accuracy (independence
    check and dependence checks weighted equally), plus TPR/FPR so any
    aggregation convention can be read off. A value repeated in ``ns``,
    ``noises`` or ``tests`` is refused with ``ValueError`` before any
    replicate runs.
    """
    _distinct(ns=ns, noises=noises, tests=tests)
    rows = []
    for n, noise, rep, rep_seed in _streams(seed, replicates, ns, noises):
        table, _ = dsep_fixture(SampleSpec(n, noise, rep_seed))
        iF, iD, iE, iT = (table.index_of(v) for v in ("F", "D", "E", "T"))
        for kind in tests:
            tester = make_test(table, kind, alpha=alpha, cutoff=cutoff)
            ind_ok = 1.0 if tester(iF, iT, (iD, iE)).independent else 0.0
            dep1 = 0.0 if tester(iD, iT, (iE, iF)).independent else 1.0
            dep2 = 0.0 if tester(iE, iT, (iD, iF)).independent else 1.0
            rows.append(
                {
                    "n": n,
                    "noise": noise,
                    "test": kind,
                    "replicate": rep,
                    "seed": rep_seed,
                    "tpr": ind_ok,
                    "fpr": 1.0 - (dep1 + dep2) / 2.0,
                    "accuracy_mean3": (ind_ok + dep1 + dep2) / 3.0,
                    "accuracy_balanced": (ind_ok + (dep1 + dep2) / 2.0) / 2.0,
                }
            )
    config = {
        "ns": list(ns),
        "noises": list(noises),
        "replicates": replicates,
        "tests": list(tests),
        "seed": seed,
        "alpha": alpha,
        "cutoff": cutoff,
    }
    return ExperimentResult("dsep", config, rows, ("n", "noise", "test"))


# -- Markov blanket benchmark -------------------------------------------------


def _capped(nodes: Iterable[str], search: Callable[[str], object], failures: list[dict],
            **where) -> dict:
    """``search(v)`` for every node ``v`` that stays within the partition cap.

    A node refused by the cap gets a failure row (``where`` plus node and
    error) and no entry in the result, whose keys keep the order of ``nodes``.
    """
    found = {}
    for v in nodes:
        try:
            found[v] = search(v)
        except PartitionCapError as exc:
            failures.append({**where, "node": v, "error": str(exc)})
    return found


def _climb_sweep(
    net: BayesNet,
    data: CategoricalTable,
    tester: IndependenceTest,
    max_cond: int,
    cap: int,
    failures: list[dict],
    **where,
) -> dict[str, dict[str, set[str]]]:
    """CLIMB roles of every node of ``net``, through :func:`_capped`.

    All nodes share ``tester``, which memoises each node's one-sided search.
    """
    def search(v: str) -> dict[str, set[str]]:
        res = climb(data, data.index_of(v), tester, max_cond, cap)
        return {role: {data.names[i] for i in getattr(res, role)}
                for role in ("parents", "children", "spouses")}

    return _capped(net.nodes, search, failures, **where)


def _blankets(method: str, net: BayesNet, data: CategoricalTable, tester: IndependenceTest,
              max_cond: int, cap: int, failures: list[dict], /, **where) -> dict[str, set[str]]:
    """Undirected blanket of every node of ``net`` by ``method`` (``climb_*`` or ``pcmb_*``).

    CLIMB leaves out the nodes its partition cap refuses, each with a failure
    row as in :func:`_capped`; the keys keep ``net.nodes`` order.
    """
    if method.startswith("climb"):
        roles = _climb_sweep(net, data, tester, max_cond, cap, failures, **where)
        return {v: set().union(*r.values()) for v, r in roles.items()}
    return {v: {data.names[i] for i in pcmb(data, data.index_of(v), tester, max_cond)[0]}
            for v in net.nodes}


def run_mb_benchmark(
    net: BayesNet,
    sizes: Sequence[int],
    replicates: int,
    methods: Sequence[str] = ("pcmb_g2", "pcmb_sci", "climb_sci"),
    seed: int = 0,
    max_cond: int = 3,
    cap: int = 20,
    alpha: float = 0.01,
) -> ExperimentResult:
    """Undirected-blanket F1 per node plus total independence-test counts.

    Every method runs on a test object of its own per replicate, so a row's
    ``tests`` (logical) and ``evaluated`` (memo misses) counts are its
    method's alone and do not depend on the run order. A value repeated in
    ``sizes`` or ``methods``, and a method other than ``climb_<kind>`` or
    ``pcmb_<kind>`` with a kind of ``sci``, ``g2`` or ``cmi``, are refused
    with ``ValueError`` before any replicate runs.
    """
    _distinct(sizes=sizes, methods=methods)
    for method in methods:
        search, _, kind = method.partition("_")
        if search not in ("climb", "pcmb") or kind not in ("sci", "g2", "cmi"):
            raise ValueError(f"methods: {method!r} is not climb_<kind> or pcmb_<kind> "
                             "with a kind of sci, g2 or cmi")
    dag = net.dag()
    truth = {v: set().union(*_roles(dag, v).values()) for v in net.nodes}
    rows = []
    failures = []
    for n, rep, rep_seed, data in _samples(net, sizes, replicates, seed):
        for method in methods:
            tester = make_test(data, method.split("_")[-1], alpha=alpha)
            blankets = _blankets(method, net, data, tester, max_cond, cap, failures,
                                 n=n, replicate=rep, method=method)
            # per-node means in net.nodes order, over the nodes the cap let through
            scores = [set_metrics(blankets[v], truth[v]) for v in blankets]
            precision, recall, f1 = (_mean_or_none([s[i] for s in scores]) for i in range(3))
            rows.append(
                {
                    "n": n,
                    "method": method,
                    "replicate": rep,
                    "seed": rep_seed,
                    "f1": f1,
                    "precision": precision,
                    "recall": recall,
                    "tests": tester.count,
                    "evaluated": tester.evaluated,
                    "failed_nodes": len(net.nodes) - len(blankets),
                }
            )
    config = {
        "net": net.name,
        "sizes": list(sizes),
        "replicates": replicates,
        "methods": list(methods),
        "seed": seed,
        "max_cond": max_cond,
        "cap": cap,
        "alpha": alpha,
    }
    return ExperimentResult("mb", config, rows, ("n", "method"), failures)


# -- parent/child partition benchmark ----------------------------------------


def run_partition_benchmark(
    net: BayesNet,
    sizes: Sequence[int],
    replicates: int,
    seed: int = 0,
    cap: int = 20,
) -> ExperimentResult:
    """Role accuracy when the true parents-and-children set is given.

    A repeated size is refused with ``ValueError`` before any replicate runs.
    """
    _distinct(sizes=sizes)
    dag = net.dag()
    # the true parents and children of every node that has any, in net.nodes order
    truth = {v: (dag.parents(v), dag.children(v)) for v in net.nodes if dag.adjacent(v)}
    rows = []
    failures = []
    for n, rep, rep_seed, data in _samples(net, sizes, replicates, seed):
        idx = {v: i for i, v in enumerate(data.names)}

        def accuracy(v: str) -> float:
            pa, ch = truth[v]
            part = find_best_partition(data, idx[v], {idx[u] for u in pa | ch}, cap)
            got_pa = {data.names[i] for i in part.parents}
            got_ch = {data.names[i] for i in part.children}
            return (len(got_pa & pa) + len(got_ch & ch)) / len(pa | ch)

        accs = list(_capped(truth, accuracy, failures, n=n, replicate=rep).values())
        rows.append({"n": n, "replicate": rep, "seed": rep_seed, "accuracy": _mean_or_none(accs)})
    config = {"net": net.name, "sizes": list(sizes), "replicates": replicates, "seed": seed, "cap": cap}
    return ExperimentResult("partition", config, rows, ("n",), failures)


# -- directed (causal) blanket benchmark --------------------------------------


def run_cmb_benchmark(
    net: BayesNet,
    sizes: Sequence[int],
    replicates: int,
    seed: int = 0,
    max_cond: int = 3,
    cap: int = 20,
    alpha: float = 0.01,
) -> ExperimentResult:
    """Role-sensitive blanket metrics: climb versus extraction from stable PC.

    A repeated size is refused with ``ValueError`` before any replicate runs.
    """
    _distinct(sizes=sizes)
    dag = net.dag()
    truth = {v: _roles(dag, v) for v in net.nodes}
    rows = []
    failures = []
    for n, rep, rep_seed, data in _samples(net, sizes, replicates, seed):
        tester = make_test(data, "sci")
        pred_climb = _climb_sweep(net, data, tester, max_cond, cap, failures,
                                  n=n, replicate=rep, method="climb")
        p, r, f = mb_set_metrics(pred_climb, {v: truth[v] for v in pred_climb}, roles=True)
        rows.append(
            {"n": n, "method": "climb", "replicate": rep, "seed": rep_seed,
             "precision": p, "recall": r, "f1": f, "tests": tester.count, "evaluated": tester.evaluated}
        )

        tester_pc = make_test(data, "g2", alpha=alpha)
        skel, seps = pc_stable_skeleton(data, tester_pc, max_cond)
        cpdag = orient_cpdag(skel, seps)
        pred_pc = {v: _roles(cpdag, v) for v in net.nodes}
        p, r, f = mb_set_metrics(pred_pc, truth, roles=True)
        rows.append(
            {"n": n, "method": "pc", "replicate": rep, "seed": rep_seed,
             "precision": p, "recall": r, "f1": f, "tests": tester_pc.count,
             "evaluated": tester_pc.evaluated}
        )
    config = {"net": net.name, "sizes": list(sizes), "replicates": replicates, "seed": seed,
              "max_cond": max_cond, "cap": cap, "alpha": alpha}
    return ExperimentResult("cmb", config, rows, ("n", "method"), failures)


# -- full-graph discovery ------------------------------------------------------


def run_causal_discovery(
    nets: Sequence[BayesNet],
    n: int,
    replicates: int,
    seed: int = 0,
    max_cond: int = 3,
    alpha: float = 0.01,
    external_cpdags: Mapping[str, PDag] | None = None,
) -> ExperimentResult:
    """Directed-edge metrics for stable PC (both tests) and climb orientation.

    ``pc_climb`` is the climb-oriented completion of the G2 partial DAG,
    ``pc_sci_climb`` of the SCI one. An externally supplied partial DAG per
    network adds ``ext`` and ``ext_climb`` rows (for score-based search
    output produced elsewhere). Rows, aggregates and ``external_cpdags`` go
    by network name, so two networks of one name are refused with
    ``ValueError`` before any replicate runs, and so is an external partial
    DAG keyed by a name no network has or over another node set than its
    network's.
    """
    _distinct(nets=[net.name for net in nets])
    by_name = {net.name: net for net in nets}
    for name, graph in (external_cpdags or {}).items():
        if name not in by_name:
            raise ValueError(f"external_cpdags: {name!r} names no network")
        if set(graph.nodes) != set(by_name[name].nodes):
            raise ValueError(f"external_cpdags: the graph for {name!r} is not over its network's nodes")
    rows = []
    failures = []
    for (net, truth), rep, rep_seed in _streams(seed, replicates, [(net, net.dag()) for net in nets]):
        external = (external_cpdags or {}).get(net.name)
        data = forward_sample(net, SampleSpec(n, 0.0, rep_seed))

        def emit(method: str, graph: PDag, tests: int | None = None) -> None:
            p, r, f = directed_edge_metrics(graph, truth)
            row = {
                "net": net.name, "n": n, "method": method, "replicate": rep,
                "seed": rep_seed, "precision": p, "recall": r, "f1": f,
                "undirected": len(graph.undirected_edges()),
                "acyclic": graph.is_acyclic(),
            }
            if tests is not None:
                row["tests"] = tests
            rows.append(row)

        for kind, pc_method, climb_method in (("g2", "pc_g2", "pc_climb"), ("sci", "pc_sci", "pc_sci_climb")):
            tester = make_test(data, kind, alpha=alpha)
            skel, seps = pc_stable_skeleton(data, tester, max_cond)
            cpdag = orient_cpdag(skel, seps)
            emit(pc_method, cpdag, tester.count)
            emit(climb_method, climb_orient(cpdag, data))

        if external is not None:
            emit("ext", external)
            emit("ext_climb", climb_orient(external, data))
    config = {
        "nets": [net.name for net in nets],
        "n": n,
        "replicates": replicates,
        "seed": seed,
        "max_cond": max_cond,
        "alpha": alpha,
        "external": sorted(external_cpdags) if external_cpdags else [],
    }
    return ExperimentResult("discovery", config, rows, ("net", "n", "method"), failures)


# -- zero-baseline association suite ------------------------------------------


def run_zero_baseline(
    ky_grid: Sequence[int] = (1, 4, 16, 64, 256, 1024),
    n: int = 1000,
    replicates: int = 100,
    kx: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Normalized association of independent pairs as the Y domain grows.

    The reference score divides information about the *target* X by the
    entropy of X, so its complexity instantiation uses the matching
    directional statistic, the code-length drop of X when Y is known (X's
    stochastic complexity minus its ``conditional_sc`` given Y): ``f_sci``
    clamps that at zero before the same normalization. ``f_plugin`` is the
    CMI test's statistic over the same entropy. The symmetric two-sided SCI
    statistic is emitted alongside (``sci_symmetric``); with exact regret
    values its reverse direction turns positive once the Y domain
    approaches the sample count, so it is reported, not scored.

    A ``k_y`` or ``kx`` below 1, a negative ``n`` or a repeated ``k_y`` is
    refused with ``ValueError`` at the call, before any replicate runs.
    """
    _distinct(ky_grid=ky_grid)
    for name, value, low in (("k_y", min(ky_grid, default=1), 1), ("kx", kx, 1), ("n", n, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    rows = []
    for ky, rep, rep_seed in _streams(seed, replicates, ky_grid):
        rng = np.random.Generator(np.random.PCG64(rep_seed))
        x = rng.integers(0, kx, size=n)
        y = rng.integers(0, ky, size=n)
        table = CategoricalTable(("X", "Y"), (x, y), (kx, ky))
        hx = plugin_entropy(np.bincount(x, minlength=kx))
        fp = make_test(table, "cmi")(0, 1).statistic / hx if hx > 0 else 0.0
        stat = stochastic_complexity(x, kx) - conditional_sc(x, kx, group_labels(table, [1])[0])
        fs = max(stat, 0.0) / (n * hx) if hx > 0 else 0.0
        rows.append(
            {
                "k_y": ky,
                "replicate": rep,
                "seed": rep_seed,
                "f_plugin": fp,
                "f_sci": fs,
                "sci_zero": 1.0 if fs == 0.0 else 0.0,
                "sci_symmetric": make_test(table, "sci")(0, 1).statistic,
            }
        )
    config = {"ky_grid": list(ky_grid), "n": n, "replicates": replicates, "kx": kx, "seed": seed}
    return ExperimentResult("zero_baseline", config, rows, ("k_y",))
