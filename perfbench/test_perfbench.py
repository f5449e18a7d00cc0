"""Self-tests of the benchmark: the oracle rejects wrong answers, every
metric named in BENCHMARK.json is emitted with its unit, and the same seed
gives the same manifest and check outcomes.

    python3 -m pytest perfbench -q

Run from the root of the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import crossover as cx  # noqa: E402
import oracle  # noqa: E402
from workloads import LARGE_SEQUENCES  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def small_fit(scenario, order):
    scope = cx.full_sequence_set(3)
    design = cx.CrossoverDesign(3, {z: 4 for z in scope})
    table = cx.random_consistent_table(3, scenario, order, design.n_units, seed=11)
    dataset = cx.realize_dataset(table, cx.sample_assignment(design, 12))
    fit = cx.feasible_rwls(dataset, scenario, order, "sample")
    groups = oracle.group_statistics(dataset.outcomes, dataset.assignments)
    reference = oracle.restricted_wls(
        3,
        oracle.class_basis(3, scenario, order),
        {z: n for z, (n, _, _) in groups.items()},
        {z: mean for z, (_, mean, _) in groups.items()},
        {str(z): fit.weight_model.matrix(z) for z in design.observed},
    )
    return fit, reference


@pytest.mark.parametrize("scenario", ["a", "b", "c"])
def test_oracle_accepts_the_fit_and_rejects_a_perturbed_gamma(scenario):
    fit, reference = small_fit(scenario, 1)
    assert oracle.check_gamma(fit.gamma, reference).ok
    assert oracle.check_restriction(fit.restriction.matrix, reference.basis, fit.gamma).ok
    perturbed = fit.gamma.copy()
    perturbed[0] += 1e-4 * (1.0 + np.abs(fit.gamma).max())
    assert not oracle.check_gamma(perturbed, reference).ok
    assert not oracle.check_restriction(fit.restriction.matrix, reference.basis, perturbed).ok


def test_oracle_rejects_a_wrong_verdict():
    basis = oracle.class_basis(6, "b", 2)
    assert oracle.identifiable(basis, 6, LARGE_SEQUENCES)
    assert not oracle.identifiable(oracle.class_basis(2, "a", None), 2, ["AB", "BA"])
    assert oracle.check_verdict(True, True).ok
    assert not oracle.check_verdict(False, True).ok
    assert not oracle.check_verdict(True, False).ok


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    result = last_json(run_bench("randomization", 1, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    named = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == named
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())


def manifest_and_checks(proc):
    lines = proc.stdout.splitlines()
    manifest = next(line for line in lines if line.startswith("manifest "))
    failures = sorted(line for line in lines if line.strip().startswith("failed "))
    result = last_json(proc)
    return manifest, failures, result["correct"], result["failed"] == 0


@pytest.mark.parametrize("workload", ["randomization", "fit-horizon"])
def test_same_seed_same_manifest_and_check_outcomes(workload):
    first = manifest_and_checks(run_bench(workload, 5, 0))
    second = manifest_and_checks(run_bench(workload, 5, 0))
    assert first == second
    assert '"steady": true' in first[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("randomization", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
