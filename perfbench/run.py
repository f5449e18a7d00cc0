"""Benchmark harness for the crossover package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It measures the checkout's own ``src/`` with BLAS and OpenMP pinned to one
thread, prints human-readable lines and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer ones.  ``--workload all`` runs
every workload in its own process and prints all of their figures.
"""

import os

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# before numpy is imported, here and in every child process
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MAX_RUN_SECONDS = 150
WORKLOAD_NAMES = ("cli-analyst", "randomization", "fit-horizon")

END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer spans: each reports <name>.self_s and <name>.calls
LAYER_SPANS = (
    "cli.main",
    "cli.parse_dataset",
    "cli.parse_estimand_request",
    "sequences.sample_assignment",
    "sequences.enumerate_assignments",
    "sequences.Assignment",
    "sequences.CrossoverDesign",
    "constraints.assemble",
    "identification.is_identifiable",
    "rwls.ObservedDataset",
    "rwls.ObservedDataset.group_indices",
    "rwls.sequence_means",
    "rwls.sample_covariances",
    "rwls.pooled_covariance_entries",
    "rwls.feasible_rwls",
    "rwls.solve_restricted_wls",
    "rwls.ehw_covariance",
    "rwls.estimate",
    "rwls.implied_estimator_weights",
    "rwls.oracle_variance",
    "estimands.stack",
    "estimands.true_value",
    "simulator.run_monte_carlo",
    "simulator.realize_dataset",
    "simulator.generate_table",
    "simulator.exact_randomization_audit",
)
LAYER_VALUES = {
    "import.crossover_s": "s",
    "import.scipy_stats_s": "s",
    "twoperiod.closed_form.self_s": "s",
    "constraints.p": "count",
    "constraints.m": "count",
    "constraints.d": "count",
    "identification.rank_deficit": "count",
    "rwls.condition_number": "ratio",
    "rwls.warnings": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.span_coverage": "ratio",
}
MANIFEST_KEYS = ("units", "sequences", "p", "m", "d", "fits", "replications", "assignments", "cli_calls")


def per_layer_units() -> dict:
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(LAYER_VALUES)
    units.update({f"manifest.{key}": "count" for key in MANIFEST_KEYS})
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_probe(importtime: bool) -> dict:
    """A cold ``import crossover.cli`` in a fresh interpreter; with
    ``importtime``, returns the cumulative import time of crossover and of
    scipy.stats, in seconds."""
    command = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import crossover.cli"]
    proc = subprocess.run(command, env=child_env(), capture_output=True, text=True, timeout=120, check=True)
    if not importtime:
        return {}
    return {
        "import.crossover_s": import_seconds(proc.stderr, "crossover"),
        "import.scipy_stats_s": import_seconds(proc.stderr, "scipy.stats"),
    }


def import_seconds(report: str, package: str) -> float:
    """Cumulative ``-X importtime`` seconds of a package: the sum over its
    outermost entries (scipy imports scipy.stats lazily, so the package
    itself may have no line of its own)."""
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:"):
            continue
        _, total, name = line.split("|")
        bare = name.strip()
        if total.strip().isdigit() and (bare == package or bare.startswith(package + ".")):
            entries.append((len(name) - len(name.lstrip()), int(total) * 1e-6))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(seconds for depth, seconds in entries if depth == top)


def peak_rss_mb(from_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if from_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def manifest_of(ops) -> dict:
    totals = dict.fromkeys(MANIFEST_KEYS, 0)
    for op in ops:
        for key, value in op.sizes.items():
            totals[key] += value
    return totals


def timed_passes(workload, budget: float) -> list:
    """Repeat passes until the next one would overrun the budget; at least one."""
    passes = []
    started = perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = perf_counter() - started
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > budget or elapsed > MAX_RUN_SECONDS:
            return passes


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {variable: os.environ[variable] for variable in THREAD_VARIABLES},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import workloads

    print("environment " + json.dumps(environment(), sort_keys=True))

    workload = workloads.create(name, work, child_env())
    setup_times, split = [], {}
    for _ in range(1 if trace else SETUP_REPEATS):
        started = perf_counter()
        split = import_probe(importtime=trace)
        workload.build(seed)
        workload.warm()
        setup_times.append(perf_counter() - started)

    budget = float(seconds)
    if trace:
        import tracing

        baseline = workload.run_pass()
        budget = max(budget - sum(op.seconds for op in baseline), 0.0)
        tracer = tracing.Tracer()
        if isinstance(workload, workloads.CliAnalyst):
            workload.trace_into(work)
        else:
            tracer.install()
            workload.tracer = tracer
    passes = timed_passes(workload, budget)
    all_ops = [op for ops in passes for op in ops] + (baseline if trace else [])
    manifests = [manifest_of(ops) for ops in passes] + ([manifest_of(baseline)] if trace else [])
    steady = all(m == manifests[0] for m in manifests)

    pass_seconds = [sum(op.seconds for op in ops) for ops in passes]
    print(f"workload {name}, seed {seed}: {len(passes)} passes of {len(passes[0])} operations "
          f"in {sum(pass_seconds):.2f} s{' (traced)' if trace else ''}")
    headline = workload.headline(passes)
    for metric, (value, unit) in headline.items():
        print(f"  {metric} = {value:.6g} {unit}")
    failed = [op for op in all_ops if not op.ok]
    print(f"  failed_share = {len(failed) / len(all_ops):.6g} ({len(failed)} of {len(all_ops)} operations)")
    for op in failed:
        print(f"  failed {op.name}{' (known failure)' if op.known else ''}: {op.detail}")
    print("manifest " + json.dumps({"per_pass": manifests[0], "steady": steady}, sort_keys=True))
    print("headline " + json.dumps(headline))

    if not trace:
        metrics = {
            "pass_s": statistics.median(pass_seconds),
            "peak_rss_mb": peak_rss_mb(workload.rss_from_children),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    else:
        if isinstance(workload, workloads.CliAnalyst):
            for path in workload.span_files:
                tracer.merge(tracing.Tracer.load(path))
        tracer.dump(ROOT / ".perfbench" / f"spans-{name}.json")
        metrics = layer_metrics(tracer, split, passes, baseline)
        metrics.update({f"manifest.{k}": v for k, v in manifests[0].items()})
        units = per_layer_units()
    return {
        "correct": steady and all(op.ok or op.known for op in all_ops),
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def layer_metrics(tracer, split: dict, passes, baseline) -> dict:
    own = tracer.self_times()
    calls = dict(zip(tracer.names, tracer.calls))
    traced = statistics.median(sum(op.seconds for op in ops) for ops in passes)
    untraced = sum(op.seconds for op in baseline)
    total = sum(op.seconds for ops in passes for op in ops)
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for key in LAYER_VALUES:
        metrics[key] = tracer.values.get(key, 0)
    metrics.update(split)
    metrics["twoperiod.closed_form.self_s"] = sum(v for k, v in own.items() if k.startswith("twoperiod."))
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    metrics["trace.span_coverage"] = tracer.root_seconds() / total
    print("self time by span (s, calls):")
    for name in sorted(own, key=own.get, reverse=True):
        if calls.get(name, 0):
            print(f"  {name:48s} {own[name]:10.4f} {calls.get(name, 0):8d}")
    print("largest self times inside each operation (share of its wall time):")
    for op_name in dict.fromkeys(op.name for ops in passes for op in ops):
        ops = [op for batch in passes for op in batch if op.name == op_name]
        inside = tracer.self_times([(op.started, op.started + op.seconds) for op in ops])
        wall = sum(op.seconds for op in ops)
        top = sorted(inside, key=inside.get, reverse=True)[:3]
        print(f"  {op_name}: " + ", ".join(f"{name} {inside[name] / wall:.0%}" for name in top))
    return metrics


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("headline ")))
        headline = next(json.loads(line[9:]) for line in lines if line.startswith("headline "))
        results[name] = (json.loads(lines[-1]), headline)
    print("\nworkload        metric                           value        unit")
    combined = {}
    for name, (result, headline) in results.items():
        rows = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        rows.update({k: tuple(v) for k, v in headline.items()})
        rows["failed_share"] = (result["failed"] / result["attempted"], "ratio")
        for metric, (value, unit) in rows.items():
            print(f"{name:15s} {metric:32s} {value:12.6g} {unit}")
            combined[f"{name}.{metric}"] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": combined,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "crossover" / "__init__.py").is_file():
        print(f"error: no crossover package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crossover

    if SRC.resolve() not in Path(crossover.__file__).resolve().parents:
        print(f"error: crossover imported from {crossover.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
