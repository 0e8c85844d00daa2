#!/usr/bin/env python3
"""Benchmark of the climb package: one workload, one seed, one process.

    python3 perfbench/run.py --workload alarm-mb --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the script finds ``src/`` and
``networks/`` next to its own directory.  A run builds its inputs from the
seed several times (to time set-up), then repeats whole passes of the
workload until ``--seconds`` have gone by and reports each op at its
fastest over the passes.
Every pass checks its outputs.  The lines before the last one name each
figure with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_SPANS = ("bif.parse_bif", "csvio.write_csv", "csvio.load_csv", "sampling.forward_sample", "netgen.random_net")


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Benchmark of the climb package.")
    p.add_argument("--workload", required=True, choices=("alarm-mb", "random-pc", "dense-roles"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_climb() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other climb."""
    src = ROOT / "src"
    if not (src / "climb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no climb package under {src}")
    sys.path.insert(0, str(src))
    import climb

    if Path(climb.__file__).resolve().parent != (src / "climb").resolve():
        sys.exit(f"perfbench: climb imported from {climb.__file__}, not from {src}")


def build_inputs(workload, seed: int, tracer=None):
    """Build the inputs SETUP_REPEATS times.

    Returns the last inputs, the duration of each build and, when traced,
    the inclusive time of each set-up span per build.
    """
    times, spans, inputs = [], [], None
    OUT.mkdir(exist_ok=True)
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.reset()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            start = time.perf_counter()
            inputs = workload.build(seed, Path(tmp))
            times.append(time.perf_counter() - start)
        if tracer is not None:
            spans.append({name: tracer.total(name) for name in SETUP_SPANS})
    return inputs, times, spans


def run_pass(workload, inputs, log_counter):
    from workloads import PassResult

    res = PassResult()
    conflicts, cycles = log_counter.collider_conflicts, log_counter.cycles_left
    start = time.perf_counter()
    workload.run(inputs, res)
    res.wall_s = time.perf_counter() - start
    res.counts["graph.collider_conflicts"] = log_counter.collider_conflicts - conflicts
    res.counts["graph.cycles_left"] = log_counter.cycles_left - cycles
    return res


def run_until(deadline: float, one_pass) -> list:
    """Whole passes, at least one, while the next is expected to end by the deadline."""
    done = [one_pass()]
    while time.perf_counter() + statistics.median(r.wall_s for r in done) <= deadline:
        done.append(one_pass())
    return done


def fastest_pass(passes: list, field: str = "op_s") -> float:
    """One pass with each op at its fastest over ``passes``.

    ``field`` is ``op_s`` for seconds or ``op_ref`` for host-speed units.
    The host's speed drifts within seconds, so per-op minima are far steadier
    than the time of any one pass.
    """
    ops = sorted({op for res in passes for op in getattr(res, field)})
    return sum(min(getattr(res, field)[op] for res in passes) for op in ops)


def traced_pass(tracer, one_pass):
    tracer.reset()
    res = one_pass()
    res.layers = layer_metrics(tracer, res)
    return res


def layer_metrics(t, res) -> dict:
    """Per-layer figures of one traced pass, as name -> (value, unit)."""
    queries = t.counts["citests.queries"]
    distinct = t.distinct_queries()
    sci_calls = t.ncalls("citests.sci")
    g2_calls = t.ncalls("citests.g2")
    span_self = sum(t.self_s)
    m = {
        "citests.queries": (queries, "count"),
        "citests.queries_distinct": (distinct, "count"),
        "citests.repeat_share": (1.0 - distinct / queries if queries else 0.0, "frac"),
    }
    for k in range(4):
        m[f"citests.queries_z{k}"] = (t.counts[f"citests.queries_z{k}"], "count")
    m.update({
        "citests.sci.calls": (sci_calls, "count"),
        "citests.sci.us_per_query": (t.total("citests.sci") / sci_calls * 1e6 if sci_calls else 0.0, "us"),
        "citests.g2.calls": (g2_calls, "count"),
        "citests.g2.us_per_query": (t.total("citests.g2") / g2_calls * 1e6 if g2_calls else 0.0, "us"),
        "citests.g2.untested_share": (t.counts["citests.g2.untested"] / g2_calls if g2_calls else 0.0, "frac"),
        "citests.self_s": (t.layer_self("citests"), "s"),
        "table.group_labels.calls": (t.ncalls("table.group_labels"), "count"),
        "table.group_labels.sort_path_calls": (t.counts["table.group_labels.sort_path_calls"], "count"),
        "table.group_labels.self_s": (t.self_time("table.group_labels"), "s"),
        "nml.regret.entries_filled": (t.counts["nml.regret.entries_filled"], "count"),
        "nml.regret.fill_s": (float(t.times["nml.regret.fill_s"]), "s"),
        "nml.conditional_sc.calls": (t.ncalls("nml.conditional_sc"), "count"),
        "nml.conditional_sc.self_s": (t.self_time("nml.conditional_sc"), "s"),
        "nml.stochastic_complexity.calls": (t.ncalls("nml.stochastic_complexity"), "count"),
        "nml.self_s": (t.layer_self("nml"), "s"),
        "blanket.climb.calls": (t.ncalls("blanket.climb"), "count"),
        "blanket.climb.spouse_s": (t.self_time("blanket.climb"), "s"),
        "blanket.find_pc.calls": (t.ncalls("blanket.find_pc"), "count"),
        "blanket.find_pc.s": (t.total("blanket.find_pc"), "s"),
        "blanket.find_best_partition.calls": (t.ncalls("blanket.find_best_partition"), "count"),
        "blanket.find_best_partition.s": (t.total("blanket.find_best_partition"), "s"),
        "blanket.partition.subsets": (t.counts["blanket.partition.subsets"], "count"),
    })
    for bucket in ("le5", "6to8", "9to10", "11to12", "gt12"):
        m[f"blanket.partition.s_pc_{bucket}"] = (float(t.times[f"blanket.partition.s_pc_{bucket}"]), "s")
    m.update({
        "blanket.partition_cap_errors": (t.counts["blanket.partition_cap_errors"], "count"),
        "blanket.self_s": (t.layer_self("blanket"), "s"),
        "graph.pc_stable_skeleton.s": (t.total("graph.pc_stable_skeleton"), "s"),
        "graph.orient_cpdag.s": (t.total("graph.orient_cpdag"), "s"),
        "graph.climb_orient.s": (t.total("graph.climb_orient"), "s"),
        "graph.climb_orient.score_partition_calls": (t.counts["graph.climb_orient.score_partition_calls"], "count"),
        "graph.collider_conflicts": (res.counts["graph.collider_conflicts"], "count"),
        "graph.cycles_left": (res.counts["graph.cycles_left"], "count"),
        "graph.self_s": (t.layer_self("graph"), "s"),
        "trace.residual_s": (res.wall_s - span_self, "s"),
        "trace.residual_share": ((res.wall_s - span_self) / res.wall_s, "frac"),
        "trace.spans": (sum(t.calls), "count"),
    })
    return m


def main() -> int:
    args = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in spec}
    # one thread: the figures must not depend on how many cores a BLAS finds
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_climb()
    import workloads
    import_s = time.perf_counter() - START

    workload = workloads.WORKLOADS[args.workload](ROOT)
    log_counter = workloads.GraphLogCounter()
    graph_log = logging.getLogger("climb.graph")
    graph_log.addHandler(log_counter)
    graph_log.propagate = False  # counted here, not printed per pass

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            inputs, setup_times, setup_spans = build_inputs(workload, args.seed, tracer)
    else:
        inputs, setup_times, setup_spans = build_inputs(workload, args.seed)

    begin = time.perf_counter()
    one_pass = functools.partial(run_pass, workload, inputs, log_counter)
    # a traced run spends half its time untraced, as the reference for the overhead
    passes = run_until(begin + (args.seconds / 2 if tracer else args.seconds), one_pass)
    traced = []
    if tracer is not None:
        with tracer.installed():
            traced = run_until(begin + args.seconds, functools.partial(traced_pass, tracer, one_pass))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    everything = passes + traced
    problems = list(inputs.problems)
    for res in everything:
        problems.extend(res.problems)
    if len({res.digest() for res in everything}) != 1:
        problems.append("outputs differ between passes")
    if len({json.dumps(res.counts, sort_keys=True) for res in everything}) != 1:
        problems.append("counts differ between passes")
    traced_counts = {json.dumps({k: v for k, (v, u) in res.layers.items() if u == "count"}) for res in traced}
    if len(traced_counts) > 1:
        problems.append("traced counts differ between passes")
    attempted = sum(res.attempted for res in everything)
    failed = sum(res.failed for res in everything)

    first = everything[0]
    wall_s = fastest_pass(passes)
    wall_ref = fastest_pass(passes, "op_ref")
    median_pass_s = statistics.median(res.wall_s for res in passes)
    setup_s = import_s + statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = [
        ("workload", args.workload, ""),
        ("seed", args.seed, ""),
        ("digest", first.digest(), "sha256"),
        ("passes", len(passes), "count"),
        ("setup_s", setup_s, "s"),
        ("setup.import_s", import_s, "s"),
        ("setup.builds", len(setup_times), "count"),
        ("wall_s", wall_s, "s"),
        ("pass_s.median", median_pass_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("wall_ref", wall_ref, "ref"),
        ("host.reference_s.median", statistics.median(r for res in passes for r in res.ref_s), "s"),
        ("host.samples", sum(len(res.ref_s) for res in passes), "count"),
        (workload.quality_name, first.quality, "frac"),
        ("attempted", attempted, "count"),
        ("failed", failed, "count"),
        ("failed_frac", failed / attempted, "frac"),
    ]
    report += [(k, v, "count") for k, v in sorted(first.counts.items())]
    if workload.op_name:
        op_ms = [s * 1e3 for res in passes for s in res.op_s.values()]
        deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
        report += [
            (f"{workload.op_name}.p50", deciles[4], "ms"),
            (f"{workload.op_name}.p70", deciles[6], "ms"),
            (f"{workload.op_name}.samples", len(op_ms), "count"),
        ]

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref": (wall_ref, "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "quality": (first.quality, "frac"),
        }
    else:
        # counts repeat exactly from pass to pass (checked above); times vary
        metrics = {
            name: (value if unit == "count" else statistics.median(res.layers[name][0] for res in traced), unit)
            for name, (value, unit) in traced[0].layers.items()
        }
        for name in SETUP_SPANS:
            metrics[f"{name}.s"] = (statistics.median(s[name] for s in setup_spans), "s")
        metrics["trace.wall_s"] = (fastest_pass(traced), "s")
        metrics["trace.untraced_wall_s"] = (wall_s, "s")
        metrics["trace.overhead_share"] = (fastest_pass(traced, "op_ref") / wall_ref - 1.0, "frac")
        report += [(name, value, unit) for name, (value, unit) in metrics.items()]

    if declared != {k: u for k, (_, u) in metrics.items()}:
        sys.exit("perfbench: the metrics differ from those BENCHMARK.json declares")

    for name, value, unit in report:
        print(f"{name} = {value} {unit}".rstrip())
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
