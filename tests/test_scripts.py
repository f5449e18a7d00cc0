"""Smoke tests of the experiment scripts at a small size."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import crossover

ROOT = Path(__file__).resolve().parents[1]
RESTRICTED = ("tau_2^1(A)", "tau_2^1(B)")


def run_script(name, *args):
    env = dict(os.environ)
    src = str(Path(crossover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_coverage_tables_print_five_columns_per_study():
    out = run_script("coverage_tables.py", "--n", "40", "--reps", "3")
    headers = [line.split()[2:] for line in out.splitlines() if line.startswith("design")]
    assert len(headers) == 2
    labels = headers[0]
    assert len(labels) == 5 and labels[3:] == list(RESTRICTED)
    rows = [line.split() for line in out.splitlines() if line.startswith(("four-", "two-"))]
    # two outcome models over 3 + 2 identifiable design/scenario pairs
    assert len(rows) == 10
    for row in rows:
        coverage = row[2:]
        assert len(coverage) == 5
        assert all(0.0 <= float(c) <= 1.0 for c in coverage)
        if row[1] in ("(b)", "(c)"):
            # no carryover is assumed, so both carryover contrasts are exact
            assert coverage[3:] == ["1.000", "1.000"]


def test_bias_distributions_write_one_csv_per_design(tmp_path):
    out = run_script("bias_distributions.py", "--n", "40", "--reps", "3", "--out-dir", str(tmp_path))
    assert out.count("wrote ") == 2
    expected_scenarios = {"four-sequence": {"a", "b", "c"}, "two-sequence": {"b", "c"}}
    for design_name, scenarios in expected_scenarios.items():
        with open(tmp_path / f"bias_{design_name}.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(scenarios) * 5 * 3
        assert {row["scenario"] for row in rows} == scenarios
        for row in rows:
            if row["scenario"] != "a" and row["estimand"] in RESTRICTED:
                assert float(row["bias"]) == 0.0


def test_long_horizon_prints_each_step_and_the_peak_rss():
    out = run_script("long_horizon.py", "--horizon", "20", "--scenario", "b", "--k", "2")
    lines = out.splitlines()
    assert "identifiable (rank 160 of 160)" in lines[0]
    for step in ("identify", "fit", "estimate", "total"):
        assert float(next(line for line in lines if line.startswith(step)).split()[1]) >= 0.0
    assert float(next(line for line in lines if line.startswith("peak RSS")).split()[2]) > 0.0
