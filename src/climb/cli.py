"""Command-line interface: tests, blanket discovery, graphs, sampling, benchmarks."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .bench import (
    run_causal_discovery,
    run_cmb_benchmark,
    run_dsep_benchmark,
    run_mb_benchmark,
    run_partition_benchmark,
    run_zero_baseline,
)
from .bif import BifParseError, parse_bif
from .blanket import PartitionCapError, climb as run_climb
from .citests import make_test
from .csvio import load_csv, write_csv
from .graph import PDag, climb_orient, orient_cpdag, pc_stable_skeleton
from .sampling import SampleSpec, dsep_fixture, forward_sample

FAILURE_EXIT = 2


def _echo_json(obj: dict) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


def _parse_names(table, raw: str) -> tuple[int, ...]:
    if not raw:
        return ()
    return tuple(table.index_of(name.strip()) for name in raw.split(",") if name.strip())


def _csv_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _csv_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip())


@click.group()
def main() -> None:
    """Causal discovery on discrete data with stochastic complexity."""


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--x", "x_name", required=True)
@click.option("--y", "y_name", required=True)
@click.option("--z", "z_names", default="", help="comma-separated conditioning columns")
@click.option("--test", "kind", type=click.Choice(["sci", "g2", "cmi"]), default="sci")
@click.option("--alpha", type=float, default=0.01)
@click.option("--cutoff", type=float, default=0.0)
def citest(data_path, x_name, y_name, z_names, kind, alpha, cutoff) -> None:
    """Run one conditional-independence test and print the verdict."""
    table = load_csv(data_path)
    tester = make_test(table, kind, alpha=alpha, cutoff=cutoff)
    z = _parse_names(table, z_names)
    verdict = tester(table.index_of(x_name), table.index_of(y_name), z)
    _echo_json(
        {
            "test": kind,
            "x": x_name,
            "y": y_name,
            "z": sorted(table.names[i] for i in z),
            "statistic": verdict.statistic,
            "independent": verdict.independent,
            "p_value": verdict.p_value,
        }
    )


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--target", required=True)
@click.option("--test", "kind", type=click.Choice(["sci", "g2", "cmi"]), default="sci")
@click.option("--max-cond", type=int, default=3)
@click.option("--alpha", type=float, default=0.01)
@click.option("--cutoff", type=float, default=0.0)
@click.option("--cap", type=int, default=20)
def mb(data_path, target, kind, max_cond, alpha, cutoff, cap) -> None:
    """Discover the causal Markov blanket of one target column."""
    table = load_csv(data_path)
    tester = make_test(table, kind, alpha=alpha, cutoff=cutoff)
    try:
        res = run_climb(table, table.index_of(target), tester, max_cond, cap)
    except PartitionCapError as exc:
        click.echo(str(exc), err=True)
        sys.exit(FAILURE_EXIT)
    _echo_json(
        {
            "target": target,
            "parents": sorted(table.names[i] for i in res.parents),
            "children": sorted(table.names[i] for i in res.children),
            "spouses": sorted(table.names[i] for i in res.spouses),
            "tests_performed": res.tests_performed,
            "tests_evaluated": tester.evaluated,
        }
    )


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--test", "kind", type=click.Choice(["sci", "g2"]), default="sci")
@click.option("--alpha", type=float, default=0.01)
@click.option("--max-cond", type=int, default=3)
@click.option("--out", "out_path", required=True, type=click.Path())
def pc(data_path, kind, alpha, max_cond, out_path) -> None:
    """Stable-PC skeleton plus collider and closure orientation."""
    table = load_csv(data_path)
    tester = make_test(table, kind, alpha=alpha)
    skeleton, sepsets = pc_stable_skeleton(table, tester, max_cond)
    cpdag = orient_cpdag(skeleton, sepsets)
    Path(out_path).write_text(json.dumps(cpdag.to_json_obj(), indent=2, sort_keys=True) + "\n")
    click.echo(
        f"wrote {out_path}: {len(cpdag.directed_edges())} directed, "
        f"{len(cpdag.undirected_edges())} undirected edges "
        f"({tester.count} tests, {tester.evaluated} evaluated)"
    )


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--pdag", "pdag_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def orient(data_path, pdag_path, out_path) -> None:
    """Direct every undirected edge of a partial DAG by code-length costs."""
    table = load_csv(data_path)
    pdag = PDag.from_json_obj(json.loads(Path(pdag_path).read_text()))
    full = climb_orient(pdag, table)
    Path(out_path).write_text(json.dumps(full.to_json_obj(), indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {out_path}: fully directed, acyclic={full.is_acyclic()}")


@main.command()
@click.option("--bif", "bif_path", required=True, type=click.Path(exists=True))
@click.option("-n", "n", required=True, type=int)
@click.option("--noise", type=float, default=0.0)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=click.Path())
def sample(bif_path, n, noise, seed, out_path) -> None:
    """Forward-sample a BIF network to CSV (plus a .domains sidecar)."""
    net = _load_net(bif_path)
    table = forward_sample(net, SampleSpec(n, noise, seed))
    write_csv(table, out_path, labels={v: list(net.labels[v]) for v in net.nodes})
    click.echo(f"wrote {out_path}: {table.n} rows x {table.m} columns")


@main.command("dsep-fixture")
@click.option("-n", "n", required=True, type=int)
@click.option("--noise", type=float, default=0.0)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=click.Path())
def dsep_fixture_cmd(n, noise, seed, out_path) -> None:
    """Sample the four-node diamond used by the independence benchmark."""
    table, _ = dsep_fixture(SampleSpec(n, noise, seed))
    write_csv(table, out_path)
    click.echo(f"wrote {out_path}: {table.n} rows x {table.m} columns")


@main.group()
def bench() -> None:
    """Reproducible desk-scale experiment suites."""


def _load_net(bif_path: str):
    try:
        return parse_bif(Path(bif_path).read_text())
    except BifParseError as exc:
        click.echo(str(exc), err=True)
        sys.exit(FAILURE_EXIT)


def _finish(result, out_dir: str) -> None:
    jpath, cpath = result.write(out_dir)
    click.echo(f"wrote {jpath} and {cpath}")
    if result.failures:
        click.echo(f"{len(result.failures)} recorded failures", err=True)
        sys.exit(FAILURE_EXIT)


@bench.command("dsep")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--replicates", type=int, default=50)
@click.option("--seed", type=int, default=0)
@click.option("--sizes", default="100,500,2500")
@click.option("--noise", "noises", default="0,0.3,0.6")
@click.option("--tests", default="sci,g2,cmi")
@click.option("--alpha", type=float, default=0.01)
@click.option("--cutoff", type=float, default=0.0)
def bench_dsep(out_dir, replicates, seed, sizes, noises, tests, alpha, cutoff) -> None:
    result = run_dsep_benchmark(
        _csv_ints(sizes), _csv_floats(noises), replicates,
        tuple(t.strip() for t in tests.split(",")), seed, alpha, cutoff,
    )
    _finish(result, out_dir)


@bench.command("mb")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--bif", "bif_path", required=True, type=click.Path(exists=True))
@click.option("--replicates", type=int, default=5)
@click.option("--seed", type=int, default=0)
@click.option("--sizes", default="1000,5000")
@click.option("--max-cond", type=int, default=3)
def bench_mb(out_dir, bif_path, replicates, seed, sizes, max_cond) -> None:
    result = run_mb_benchmark(_load_net(bif_path), _csv_ints(sizes), replicates, seed=seed, max_cond=max_cond)
    _finish(result, out_dir)


@bench.command("partition")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--bif", "bif_path", required=True, type=click.Path(exists=True))
@click.option("--replicates", type=int, default=5)
@click.option("--seed", type=int, default=0)
@click.option("--sizes", default="1000,5000")
def bench_partition(out_dir, bif_path, replicates, seed, sizes) -> None:
    result = run_partition_benchmark(_load_net(bif_path), _csv_ints(sizes), replicates, seed=seed)
    _finish(result, out_dir)


@bench.command("cmb")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--bif", "bif_path", required=True, type=click.Path(exists=True))
@click.option("--replicates", type=int, default=5)
@click.option("--seed", type=int, default=0)
@click.option("--sizes", default="1000,5000")
@click.option("--max-cond", type=int, default=3)
def bench_cmb(out_dir, bif_path, replicates, seed, sizes, max_cond) -> None:
    result = run_cmb_benchmark(_load_net(bif_path), _csv_ints(sizes), replicates, seed=seed, max_cond=max_cond)
    _finish(result, out_dir)


@bench.command("discovery")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--bif", "bif_paths", required=True, multiple=True, type=click.Path(exists=True))
@click.option("--replicates", type=int, default=5)
@click.option("--seed", type=int, default=0)
@click.option("-n", "n", type=int, default=5000)
@click.option("--max-cond", type=int, default=3)
@click.option("--alpha", type=float, default=0.01)
@click.option("--cpdag", "cpdag_path", type=click.Path(exists=True), default=None,
              help="externally produced partial DAG (JSON) to orient as well")
def bench_discovery(out_dir, bif_paths, replicates, seed, n, max_cond, alpha, cpdag_path) -> None:
    nets = [_load_net(p) for p in bif_paths]
    external = None
    if cpdag_path:
        graph = PDag.from_json_obj(json.loads(Path(cpdag_path).read_text()))
        external = {net.name: graph for net in nets if set(net.nodes) == set(graph.nodes)}
        if not external:
            click.echo("external partial DAG matches no supplied network", err=True)
            sys.exit(FAILURE_EXIT)
    result = run_causal_discovery(nets, n, replicates, seed, max_cond, alpha, external)
    _finish(result, out_dir)


@bench.command("zero-baseline")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--replicates", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("-n", "n", type=int, default=1000)
@click.option("--ky-grid", default="1,4,16,64,256,1024")
def bench_zero_baseline(out_dir, replicates, seed, n, ky_grid) -> None:
    result = run_zero_baseline(_csv_ints(ky_grid), n, replicates, seed=seed)
    _finish(result, out_dir)


if __name__ == "__main__":
    main()
