"""The benchmark's workloads: seeded inputs, one pass of operations, output checks.

Each workload builds its inputs the way the command line would (network,
forward sample, CSV round trip through a temporary directory) and then runs
one pass of public ``climb`` calls.  A pass is a pure function of the inputs,
so its output digest and its counts repeat exactly from pass to pass and
from run to run at a fixed seed.

The random networks are fixed per workload (``*_NET_SEED``) and only the
samples come from the run's seed: the amount of work then stays close to
constant across seeds, while every seed still draws different data.

Every op is timed in seconds and in units of ``reference_s``, a fixed
computation timed next to it.
"""
from __future__ import annotations

import hashlib
import json
import logging
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from climb import bif, blanket, citests, csvio, graph, netgen, nml, sampling
from climb.table import CategoricalTable

ALARM_N = 1000
# alarm targets are dealt round-robin over this many samples: with one
# shared sample, whole seeds come out easy or hard (CI queries over seeds
# 1-10 spread 0.26 as IQR/median; with four samples about half that)
ALARM_SAMPLES = 4
RANDOM_PC_N = 5000
DENSE_N = 2000
MAX_COND = 3
MB_CAP = 20
PARTITION_CAP = 12
# the networks' own seeds; at these, sample seed 7 gives the figures the
# workloads were designed around (25,946 CI queries and 172 collider
# conflicts in random-pc; |PC| of 11 or 12 at six nodes and 14 at one, above
# PARTITION_CAP, in dense-roles)
RANDOM_PC_NET_SEED = 1
DENSE_NET_SEED = 3


# host-speed samples: at most one per quarter second, each the faster of two
# back-to-back runs, so it shows the host rather than what the previous op
# left in the caches
REF_EVERY_S = 0.25
REF_REPEATS = 2
_REF_ROWS = np.random.default_rng(0).integers(0, 4, size=(3, 2000))


def reference_s() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    The shared host's speed drifts by tens of percent within a minute, and
    ``climb``'s ops slow down with it.  This computation calls nothing from
    ``climb``, so dividing an op's time by it cancels the drift and keeps
    every change to the package.
    """
    x, y, z = _REF_ROWS
    start = perf_counter()
    for _ in range(4):
        counts = np.bincount((x * 4 + y) * 4 + z, minlength=64)
        nz = counts[counts > 0].astype(np.float64)
        float((nz * np.log2(nz)).sum())
        np.unique(np.stack([x, z]), axis=1, return_inverse=True)
        tally: dict = {}
        for i in range(300):
            key = (i % 7, i % 5, i % 3)
            tally[key] = tally.get(key, 0) + i
    return perf_counter() - start


@dataclass
class Inputs:
    net: bif.BayesNet
    tables: list[CategoricalTable]
    problems: list[str]


@dataclass
class PassResult:
    """What one pass did: its outputs, op counts, check failures and figures."""

    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    op_s: dict[str, float] = field(default_factory=dict)  # seconds per completed op
    op_ref: dict[str, float] = field(default_factory=dict)  # the same in units of reference_s
    ref_s: list[float] = field(default_factory=list)  # host-speed samples
    ref_at: float = 0.0  # when the latest sample was taken
    quality: float = 0.0
    counts: dict = field(default_factory=dict)
    wall_s: float = 0.0
    layers: dict = field(default_factory=dict)  # per-layer figures of a traced pass

    def sample_host(self, every: float) -> float:
        """The latest host-speed sample, taken anew if older than ``every`` seconds."""
        if not self.ref_s or perf_counter() - self.ref_at >= every:
            self.ref_s.append(min(reference_s() for _ in range(REF_REPEATS)))
            self.ref_at = perf_counter()
        return self.ref_s[-1]

    @contextmanager
    def timed(self, op: str):
        """Time the block as op ``op``; an op that raises gets no time.

        The op's time is also divided by the host speed around it: the mean
        of the samples just before and just after it.
        """
        before = self.sample_host(REF_EVERY_S)
        start = perf_counter()
        yield
        self.op_s[op] = perf_counter() - start
        self.op_ref[op] = self.op_s[op] / ((before + self.sample_host(REF_EVERY_S)) / 2)

    def error(self, op: str) -> None:
        """Count the op as failed and report the exception being handled."""
        self.failed += 1
        self.problems.append(f"{op}: {traceback.format_exc(limit=3)}")

    def check(self, op: str, problems: list[str]) -> bool:
        """Count the op as failed if any of its output checks failed."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)
        return not problems

    def digest(self) -> str:
        blob = json.dumps(self.outputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class GraphLogCounter(logging.Handler):
    """Counts the orientation warnings that ``climb.graph`` logs."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.collider_conflicts = 0
        self.cycles_left = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("conflicting collider"):
            self.collider_conflicts += 1
        elif "directed cycle" in record.msg:
            self.cycles_left += 1


def _sample(net: bif.BayesNet, n: int, seeds: list[int], workdir: Path) -> Inputs:
    """One forward sample per seed, each written to CSV and loaded back."""
    tables, problems = [], []
    for seed in seeds:
        table = sampling.forward_sample(net, sampling.SampleSpec(n, 0.0, seed))
        path = workdir / f"sample{seed}.csv"
        csvio.write_csv(table, path, labels={v: list(net.labels[v]) for v in net.nodes})
        loaded = csvio.load_csv(path)
        same = (
            loaded.names == table.names
            and loaded.cards == table.cards
            and all(np.array_equal(a, b) for a, b in zip(loaded.columns, table.columns))
        )
        if not same:
            problems.append(f"CSV round trip changed sample {seed}")
        tables.append(loaded)
    return Inputs(net, tables, problems)


def _names(table, idx) -> list[str]:
    return sorted(table.names[i] for i in idx)


def true_roles(dag: graph.PDag, v: str) -> dict[str, set[str]]:
    pa, ch = dag.parents(v), dag.children(v)
    sp = set().union(*(dag.parents(c) for c in ch)) - {v} - pa - ch
    return {"parents": pa, "children": ch, "spouses": sp}


def check_blanket(res: blanket.BlanketResult, target: int, m: int) -> list[str]:
    sets = {"parents": res.parents, "children": res.children, "spouses": res.spouses}
    problems = [f"{r} hold the target" for r, s in sets.items() if target in s]
    problems += [f"{r} index outside the table" for r, s in sets.items() if any(not 0 <= i < m for i in s)]
    roles = list(sets)
    for i, a in enumerate(roles):
        for b in roles[i + 1:]:
            if sets[a] & sets[b]:
                problems.append(f"{a} and {b} overlap")
    return problems


def check_partition(part: blanket.Partition, pc: set[int]) -> list[str]:
    problems = []
    if part.parents & part.children:
        problems.append("parents and children overlap")
    if part.parents | part.children != pc:
        problems.append("partition does not cover the parents-and-children set")
    return problems


def check_oriented(dag: graph.PDag, source: graph.PDag) -> list[str]:
    problems = []
    if dag.undirected_edges():
        problems.append(f"{len(dag.undirected_edges())} undirected edges left")
    if _adjacency(dag) != _adjacency(source):
        problems.append("orientation changed the adjacencies")
    kept = set(source.directed_edges())
    if not kept <= set(dag.directed_edges()):
        problems.append("orientation flipped an input direction")
    return problems


def _adjacency(g: graph.PDag) -> set[frozenset[str]]:
    return {frozenset(e) for e in g.directed_edges() + g.undirected_edges()}


def _edges(g: graph.PDag) -> dict[str, list]:
    return {"directed": g.directed_edges(), "undirected": g.undirected_edges()}


class Workload:
    name = ""
    quality_name = ""  # the deterministic quality figure a pass yields
    op_name = ""  # the per-op latency a pass yields, if its ops are alike

    def __init__(self, root: Path) -> None:
        self.root = root


class AlarmMb(Workload):
    """One directed blanket per target of alarm, each with a cold regret table."""

    name = "alarm-mb"
    quality_name = "mb_f1"
    op_name = "blanket_ms"

    def build(self, seed: int, workdir: Path) -> Inputs:
        net = bif.parse_bif((self.root / "networks" / "alarm.bif").read_text())
        return _sample(net, ALARM_N, [seed * ALARM_SAMPLES + i for i in range(ALARM_SAMPLES)], workdir)

    def run(self, inp: Inputs, res: PassResult) -> None:
        dag = inp.net.dag()
        pred = {}
        for t, name in enumerate(inp.net.nodes):
            table = inp.tables[t % ALARM_SAMPLES]
            res.attempted += 1
            try:
                with res.timed(f"climb {name}"):
                    # as `climb mb` does: a fresh test and regret table per target
                    regrets = nml.RegretTable()
                    test = citests.make_test(table, "sci", regrets=regrets)
                    out = blanket.climb(table, t, test, MAX_COND, MB_CAP, regrets)
            except Exception:
                res.error(f"climb {name}")
                continue
            if not res.check(f"climb {name}", check_blanket(out, t, table.m)):
                continue
            roles = {
                "parents": _names(table, out.parents),
                "children": _names(table, out.children),
                "spouses": _names(table, out.spouses),
            }
            res.outputs[name] = {**roles, "tests": out.tests_performed}
            pred[name] = {r: set(v) for r, v in roles.items()}
        res.quality = graph.mb_set_metrics(pred, {v: true_roles(dag, v) for v in dag.nodes}, roles=True)[2]


class RandomPc(Workload):
    """Stable PC with G2 and SCI, collider orientation, then orientation by code length."""

    name = "random-pc"
    quality_name = "dag_f1"

    def build(self, seed: int, workdir: Path) -> Inputs:
        net = netgen.random_net(100, 0.04, RANDOM_PC_NET_SEED, card_range=(2, 4))
        return _sample(net, RANDOM_PC_N, [seed], workdir)

    def run(self, inp: Inputs, res: PassResult) -> None:
        table, truth = inp.tables[0], inp.net.dag()
        regrets = nml.RegretTable()
        oriented = {}
        for kind in ("g2", "sci"):
            # `climb pc --test <kind>`, then `climb orient` on its output
            res.attempted += 2
            try:
                with res.timed(f"pc {kind}"):
                    test = citests.make_test(table, kind, regrets=regrets)
                    skel, seps = graph.pc_stable_skeleton(table, test, MAX_COND)
                    cpdag = graph.orient_cpdag(skel, seps)
            except Exception:
                res.error(f"pc {kind}")
                res.failed += 1  # the orientation that needed its output
                continue
            problems = [] if _adjacency(cpdag) == _adjacency(skel) else ["collider orientation changed adjacencies"]
            if not res.check(f"pc {kind}", problems):
                res.failed += 1
                continue
            res.outputs[f"pc_{kind}"] = {**_edges(cpdag), "tests": test.count}
            oriented[kind] = self._orient(f"orient {kind}", cpdag, table, regrets, res)
        skeleton = graph.PDag(truth.nodes)
        for a, b in truth.directed_edges():
            skeleton.add_undirected(a, b)
        res.attempted += 1
        self._orient("orient true skeleton", skeleton, table, regrets, res)
        if oriented.get("sci") is not None:
            res.quality = graph.directed_edge_metrics(oriented["sci"], truth)[2]

    @staticmethod
    def _orient(op: str, pdag: graph.PDag, table, regrets, res: PassResult) -> graph.PDag | None:
        try:
            with res.timed(op):
                dag = graph.climb_orient(pdag, table, regrets)
        except Exception:
            res.error(op)
            return None
        if not res.check(op, check_oriented(dag, pdag)):
            return None
        res.outputs[op] = _edges(dag)
        return dag


class DenseRoles(Workload):
    """Exhaustive parent/child split of every true parents-and-children set."""

    name = "dense-roles"
    quality_name = "role_acc"
    op_name = "partition_ms"

    def build(self, seed: int, workdir: Path) -> Inputs:
        net = netgen.random_net(40, 0.2, DENSE_NET_SEED, card_range=(2, 4))
        return _sample(net, DENSE_N, [seed], workdir)

    def run(self, inp: Inputs, res: PassResult) -> None:
        table, dag = inp.tables[0], inp.net.dag()
        idx = {v: i for i, v in enumerate(table.names)}
        regrets = nml.RegretTable()
        accs = []
        refused = 0
        for v in table.names:
            pa, ch = dag.parents(v), dag.children(v)
            pc = {idx[u] for u in pa | ch}
            if not pc:
                continue
            op = f"partition {v}"
            res.attempted += 1
            try:
                with res.timed(op):
                    part = blanket.find_best_partition(table, idx[v], pc, PARTITION_CAP, regrets)
            except blanket.PartitionCapError as exc:
                # the documented refusal above the cap is the expected output
                if res.check(op, [] if exc.degree == len(pc) > PARTITION_CAP else [f"refused: {exc}"]):
                    refused += 1
                    res.outputs[v] = {"refused": exc.degree}
                continue
            except Exception:
                res.error(op)
                continue
            problems = check_partition(part, pc)
            if len(pc) > PARTITION_CAP:
                problems.append(f"|PC| = {len(pc)} above the cap was not refused")
            if not res.check(op, problems):
                continue
            got_pa, got_ch = set(_names(table, part.parents)), set(_names(table, part.children))
            res.outputs[v] = {"parents": sorted(got_pa), "children": sorted(got_ch)}
            accs.append((len(got_pa & pa) + len(got_ch & ch)) / len(pc))
        res.counts["partition_cap_refusals"] = refused
        res.quality = float(np.mean(accs)) if accs else 0.0


WORKLOADS = {w.name: w for w in (AlarmMb, RandomPc, DenseRoles)}
