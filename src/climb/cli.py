"""Command-line interface: tests, blanket discovery, graphs, sampling, benchmarks."""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import NoReturn

import click

from .bench import (
    _distinct,
    run_causal_discovery,
    run_cmb_benchmark,
    run_dsep_benchmark,
    run_mb_benchmark,
    run_partition_benchmark,
    run_zero_baseline,
)
from .bif import parse_bif
from .blanket import PartitionCapError, climb as run_climb
from .citests import make_test
from .csvio import load_csv, write_csv
from .graph import PDag, climb_orient, orient_cpdag, pc_stable_skeleton
from .sampling import SampleSpec, dsep_fixture, forward_sample

FAILURE_EXIT = 2


def _echo_json(obj: dict) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


def _fail(message: str) -> NoReturn:
    click.echo(message, err=True)
    sys.exit(FAILURE_EXIT)


def _parse_names(table, raw: str) -> tuple[int, ...]:
    return tuple(table.index_of(name.strip()) for name in raw.split(",") if name.strip())


def _csv_list(kind: type, noun: str):
    """Option callback: parse a comma-separated list of distinct ``kind`` values, at least one.

    A repeated value would run its cell twice and fold both runs into one
    aggregate, whose ``count`` would then be twice ``replicates``.
    """

    def parse(ctx: click.Context, param: click.Parameter, raw: str) -> tuple:
        try:
            values = tuple(kind(x) for x in raw.split(",") if x.strip())
        except ValueError:
            values = ()
        if not values:
            raise ValueError(f"{param.opts[0]}: expected comma-separated {noun}, got {raw!r}")
        if len(set(values)) < len(values):
            raise ValueError(f"{param.opts[0]}: expected distinct {noun}, got {raw!r}")
        return values

    return parse


def _out_dir(ctx: click.Context, param: click.Parameter, raw: str) -> str:
    """Option callback: refuse an output directory that a file blocks."""
    blocker = next((p for p in (Path(raw), *Path(raw).parents) if p.exists()), None)
    if blocker is not None and not blocker.is_dir():
        raise ValueError(f"{param.opts[0]}: {blocker} is not a directory")
    return raw


_ints, _floats = _csv_list(int, "integers"), _csv_list(float, "numbers")
_bif_option = click.option("--bif", "bif_path", required=True, type=click.Path(exists=True))
_sizes_option = click.option("--sizes", default="1000,5000", callback=_ints)
_max_cond_option = click.option("--max-cond", type=int, default=3)
_seed_option = click.option("--seed", type=int, default=0)


class _Cli(click.Group):
    """Every command refuses bad input the same way: one stderr line, exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except KeyError as exc:
            _fail(exc.args[0])
        except (ValueError, OSError, PartitionCapError, csv.Error) as exc:
            _fail(str(exc))


@click.group(cls=_Cli)
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
    x, y, z = table.index_of(x_name), table.index_of(y_name), _parse_names(table, z_names)
    verdict = tester(x, y, z)
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
@_max_cond_option
@click.option("--alpha", type=float, default=0.01)
@click.option("--cutoff", type=float, default=0.0)
@click.option("--cap", type=int, default=20)
def mb(data_path, target, kind, max_cond, alpha, cutoff, cap) -> None:
    """Discover the causal Markov blanket of one target column."""
    table = load_csv(data_path)
    tester = make_test(table, kind, alpha=alpha, cutoff=cutoff)
    res = run_climb(table, table.index_of(target), tester, max_cond, cap)
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
@_max_cond_option
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
    pdag = _load_pdag(pdag_path)
    full = climb_orient(pdag, table)
    Path(out_path).write_text(json.dumps(full.to_json_obj(), indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {out_path}: fully directed, acyclic={full.is_acyclic()}")


@main.command()
@_bif_option
@click.option("-n", "n", required=True, type=int)
@click.option("--noise", type=float, default=0.0)
@_seed_option
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
@_seed_option
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
    return parse_bif(Path(bif_path).read_text())


def _load_pdag(pdag_path: str) -> PDag:
    try:
        obj = json.loads(Path(pdag_path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{pdag_path}: {exc}") from None
    return PDag.from_json_obj(obj)


def _finish(out_dir: str, result) -> None:
    """Write one bench suite's files, and exit 2 on recorded failures."""
    jpath, cpath = result.write(out_dir)
    click.echo(f"wrote {jpath} and {cpath}")
    if result.failures:
        _fail(f"{len(result.failures)} recorded failures")


def _suite(name: str, replicates: int, *lead):
    """Register ``climb bench NAME`` with the options every suite takes.

    Its help lists ``--out-dir``, the ``lead`` options, ``--replicates``
    (default ``replicates``) and ``--seed``, then the options decorated below.
    """
    shared = (click.option("--out-dir", required=True, type=click.Path(), callback=_out_dir), *lead,
              click.option("--replicates", type=int, default=replicates), _seed_option)

    def register(command):
        for option in reversed(shared):
            command = option(command)
        return bench.command(name)(command)

    return register


@_suite("dsep", 50)
@click.option("--sizes", default="100,500,2500", callback=_ints)
@click.option("--noise", "noises", default="0,0.3,0.6", callback=_floats)
@click.option("--tests", "kinds", default="sci,g2,cmi", callback=_csv_list(str.strip, "test kinds"))
@click.option("--alpha", type=float, default=0.01)
@click.option("--cutoff", type=float, default=0.0)
def bench_dsep(out_dir, replicates, seed, sizes, noises, kinds, alpha, cutoff) -> None:
    _finish(out_dir, run_dsep_benchmark(sizes, noises, replicates, kinds, seed, alpha, cutoff))


@_suite("mb", 5, _bif_option)
@_sizes_option
@_max_cond_option
def bench_mb(out_dir, bif_path, replicates, seed, sizes, max_cond) -> None:
    _finish(out_dir, run_mb_benchmark(_load_net(bif_path), sizes, replicates,
                                      seed=seed, max_cond=max_cond))


@_suite("partition", 5, _bif_option)
@_sizes_option
def bench_partition(out_dir, bif_path, replicates, seed, sizes) -> None:
    _finish(out_dir, run_partition_benchmark(_load_net(bif_path), sizes, replicates, seed=seed))


@_suite("cmb", 5, _bif_option)
@_sizes_option
@_max_cond_option
def bench_cmb(out_dir, bif_path, replicates, seed, sizes, max_cond) -> None:
    _finish(out_dir, run_cmb_benchmark(_load_net(bif_path), sizes, replicates,
                                       seed=seed, max_cond=max_cond))


@_suite("discovery", 5, click.option("--bif", "bif_paths", required=True, multiple=True,
                                      type=click.Path(exists=True)))
@click.option("-n", "n", type=int, default=5000)
@_max_cond_option
@click.option("--alpha", type=float, default=0.01)
@click.option("--cpdag", "cpdag_path", type=click.Path(exists=True), default=None,
              help="externally produced partial DAG (JSON) to orient as well")
def bench_discovery(out_dir, bif_paths, replicates, seed, n, max_cond, alpha, cpdag_path) -> None:
    nets = [_load_net(p) for p in bif_paths]
    # rows, aggregates and --cpdag go by network name
    _distinct(**{"--bif network name": (net.name for net in nets)})
    external = None
    if cpdag_path:
        graph = _load_pdag(cpdag_path)
        external = {net.name: graph for net in nets if set(net.nodes) == set(graph.nodes)}
        if not external:
            _fail("external partial DAG matches no supplied network")
    _finish(out_dir, run_causal_discovery(nets, n, replicates, seed, max_cond, alpha, external))


@_suite("zero-baseline", 100)
@click.option("-n", "n", type=int, default=1000)
@click.option("--ky-grid", default="1,4,16,64,256,1024", callback=_ints)
def bench_zero_baseline(out_dir, replicates, seed, n, ky_grid) -> None:
    _finish(out_dir, run_zero_baseline(ky_grid, n, replicates, seed=seed))


if __name__ == "__main__":
    main()
