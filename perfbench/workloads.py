"""The four benchmark workloads.

Each workload is a closed loop with one client: a pass runs a fixed list of
operations back to back, and the harness repeats passes for the run's
length.  Every operation is timed on its own and then checked against the
oracle outside its timed region; a failed check or a raised error marks
the operation failed, and nothing is dropped.

Calls into the package look names up at call time (``cx.feasible_rwls``)
so that a traced run sees them.  The checks bind the few package helpers
they need at import, before any tracer is installed, so checking never
shows up in the spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import crossover as cx
from crossover import (
    ObservedDataset as _ObservedDataset,
    feasible_rwls as _feasible_rwls,
    estimate as _estimate,
    generate_table as _generate_table,
    sample_assignment as _sample_assignment,
)
from crossover.cli import parse_estimand_request as _parse_estimand_request
from crossover.twoperiod import TwoPeriodSummary as _TwoPeriodSummary
from crossover.twoperiod import conservative_variances as _conservative_variances

import oracle

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed operation and the outcome of its check."""

    name: str
    seconds: float
    ok: bool
    detail: str = ""
    known: bool = False
    units: int = 1
    sizes: dict = field(default_factory=dict)
    started: float = 0.0


def _sizes(units: int, sequences: int, p: int, m: int, **extra) -> dict:
    return {"units": units, "sequences": sequences, "p": p, "m": m, "d": p - m, **extra}


def _first_failure(*checks: oracle.Check) -> oracle.Check:
    for check in checks:
        if not check.ok:
            return check
    return oracle.Check(True)


def _seed(seed: int, *stream: int) -> int:
    """An int seed for package calls that take one, derived from the run seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _timed(call):
    """Run ``call`` and return (result, error text, start, seconds)."""
    started = perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}", started, perf_counter() - started
    return result, "", started, perf_counter() - started


class Workload:
    name = ""
    rss_from_children = False
    tracer = None  # set by a traced run; checks run with it paused

    def quiet(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def build(self, seed: int) -> None:
        """Make every input from the seed; repeatable."""
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed call that finishes lazy set-up before timing."""

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def headline(self, passes: list[list[Op]]) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit)."""
        raise NotImplementedError


def _median_over_passes(passes, names) -> float:
    return statistics.median(sum(op.seconds for op in ops if op.name in names) for ops in passes)


def _median_rate(passes) -> float:
    """Median over passes of work units (replications, assignments) per second."""
    return statistics.median(sum(op.units for op in ops) / sum(op.seconds for op in ops) for ops in passes)


# --- fit-horizon -------------------------------------------------------

# (horizon, scenario, carryover order, weights); three units per sequence
# over the full 2^T scope.  T=8 is left out: one fit takes 30-40 s.
HORIZON_FITS = (
    (6, "a", None, "sample"),
    (6, "b", 1, "sample"),
    (6, "c", 1, "sample"),
    (6, "b", 2, "pooled"),
    (7, "b", 1, "sample"),
)


@dataclass
class _HorizonCase:
    name: str
    horizon: int
    scenario: str
    order: int | None
    weights: str
    dataset: object
    spec: object
    reference: dict = field(default_factory=dict)


class FitHorizon(Workload):
    name = "fit-horizon"

    def build(self, seed: int) -> None:
        self.cases = []
        for i, (horizon, scenario, order, weights) in enumerate(HORIZON_FITS):
            scope = cx.full_sequence_set(horizon)
            design = cx.CrossoverDesign(horizon, {z: 3 for z in scope})
            table = cx.random_consistent_table(
                horizon, scenario, order or 1, design.n_units, seed=_seed(seed, 1, i)
            )
            dataset = cx.realize_dataset(table, cx.sample_assignment(design, [seed, 2, i]))
            ones = "A" * (horizon - 2)
            spec = cx.stack(
                [
                    cx.instantaneous_effect(1, "", scope),
                    cx.instantaneous_effect(horizon, ones + "A", scope),
                    cx.carryover_effect(horizon, 1, ones, "B", scope),
                ]
            )
            name = f"T{horizon}-{scenario}" + (f"-k{order}" if order else "") + f"-{weights}"
            self.cases.append(_HorizonCase(name, horizon, scenario, order, weights, dataset, spec))

    def warm(self) -> None:
        scope = cx.full_sequence_set(3)
        design = cx.CrossoverDesign(3, {z: 3 for z in scope})
        table = cx.random_consistent_table(3, "b", 1, design.n_units, seed=0)
        dataset = cx.realize_dataset(table, cx.sample_assignment(design, 0))
        fit = cx.feasible_rwls(dataset, "b", 1, "pooled")
        cx.estimate(fit, cx.instantaneous_effect(2, "A", scope))

    def run_pass(self) -> list[Op]:
        ops = []
        for case in self.cases:
            def call(case=case):
                fit = cx.feasible_rwls(case.dataset, case.scenario, case.order, case.weights)
                return fit, cx.estimate(fit, case.spec)

            out, error, started, seconds = _timed(call)
            if error:
                ops.append(Op(case.name, seconds, False, error, started=started))
                continue
            fit, result = out
            with self.quiet():
                check = self.check(case, fit, result)
            sizes = _sizes(
                case.dataset.n_units, len(case.dataset.design.counts), fit.layout.size,
                fit.restriction.n_rows, fits=1,
            )
            ops.append(Op(case.name, seconds, check.ok, check.detail, sizes=sizes, started=started))
        return ops

    def check(self, case: _HorizonCase, fit, result) -> oracle.Check:
        ref = case.reference
        horizon = case.horizon
        if not ref:
            ref["basis"] = oracle.class_basis(horizon, case.scenario, case.order or 1)
            ref["groups"] = oracle.group_statistics(case.dataset.outcomes, case.dataset.assignments)
            ref["b"] = oracle.estimand_matrix(case.spec, horizon)
            observed = list(case.dataset.design.counts)
            ref["identifiable"] = oracle.identifiable(ref["basis"], horizon, observed)
        basis, groups = ref["basis"], ref["groups"]
        weights = {str(z): fit.weight_model.matrix(z) for z in fit.design.observed}
        weight_checks = []
        for z, (_, _, cov) in groups.items():
            if case.weights == "sample":
                weight_checks.append(oracle.check_sample_weight(weights[z], cov))
            elif np.linalg.eigvalsh(weights[z]).min() <= 0.0:
                weight_checks.append(oracle.Check(False, f"pooled weight for {z} is not positive definite"))
        reference = oracle.restricted_wls(
            horizon,
            basis,
            {z: n for z, (n, _, _) in groups.items()},
            {z: mean for z, (_, mean, _) in groups.items()},
            weights,
        )
        point = ref["b"] @ reference.gamma
        point[oracle.restricted_rows(ref["b"], basis)] = 0.0
        return _first_failure(
            oracle.check_verdict(True, ref["identifiable"]),
            *weight_checks,
            oracle.check_restriction(fit.restriction.matrix, basis, fit.gamma),
            oracle.check_gamma(fit.gamma, reference),
            oracle.close(result.point, point, oracle.GAMMA_TOLERANCE),
        )

    def headline(self, passes) -> dict:
        t6 = {c.name for c in self.cases if c.horizon == 6}
        t7 = {c.name for c in self.cases if c.horizon == 7}
        return {
            "fit_T6_s": (_median_over_passes(passes, t6), "s"),
            "fit_T7_s": (_median_over_passes(passes, t7), "s"),
        }


# --- randomization: Monte Carlo and exact audits -----------------------

FOUR = ("AA", "AB", "BA", "BB")
# (name, generator kind, scenario, counts): the designs of the package's
# coverage criteria 07 and 08
MC_STUDIES = (
    ("four-seq-b", "gaussian_model", "b", {z: 100 for z in FOUR}),
    ("ab-ba-c", "constant_effect", "c", {"AB": 200, "BA": 200}),
)
MC_REPLICATIONS = 300
MC_REFITS = 3  # replications per study and pass re-fit by the oracle


@dataclass
class _Study:
    name: str
    generator: object
    design: object
    specs: list
    seed: int
    reference: dict = field(default_factory=dict)


class MonteCarlo(Workload):
    """The Monte Carlo half of the randomization workload."""

    def build(self, seed: int) -> None:
        self.seed = seed
        self.pass_index = 0
        self.studies = []
        for i, (name, kind, scenario, counts) in enumerate(MC_STUDIES):
            generator = cx.ScenarioGenerator(kind=kind, scenario=scenario, seed=_seed(seed, 3, i))
            design = cx.CrossoverDesign(2, counts)
            specs = cx.standard_two_period_specs(design.scope)
            self.studies.append(_Study(name, generator, design, specs, _seed(seed, 4, i)))

    def warm(self) -> None:
        for study in self.studies:
            cx.run_monte_carlo(study.generator, study.design, study.specs, replications=5, seed=study.seed)

    def run_pass(self) -> list[Op]:
        ops = []
        for study in self.studies:
            report, error, started, seconds = _timed(
                lambda study=study: cx.run_monte_carlo(
                    study.generator,
                    study.design,
                    study.specs,
                    replications=MC_REPLICATIONS,
                    weight_choice="sample",
                    seed=study.seed,
                ),
            )
            if error:
                ops.append(Op(study.name, seconds, False, error, units=MC_REPLICATIONS, started=started))
                continue
            with self.quiet():
                check = self.check(study, report)
            basis = study.reference["basis"]
            sizes = _sizes(
                study.design.n_units, len(study.design.counts), basis.shape[0],
                basis.shape[0] - basis.shape[1], replications=report.replications,
            )
            ops.append(Op(study.name, seconds, check.ok, check.detail, units=report.replications, sizes=sizes, started=started))
        self.pass_index += 1
        return ops

    def check(self, study: _Study, report) -> oracle.Check:
        ref = study.reference
        if not ref:
            ref["basis"] = oracle.class_basis(2, study.generator.scenario, 1)
            ref["b"] = oracle.estimand_matrix(cx.stack(study.specs), 2)
            ref["restricted"] = oracle.restricted_rows(ref["b"], ref["basis"])
            ref["table"] = _generate_table(study.generator, study.design.n_units, study.design)
            ref["truth"] = oracle.table_truth(ref["b"], ref["table"])
            ref["bias"] = report.bias.copy()
        restricted = ref["restricted"]
        checks = [
            oracle.close(report.truth, ref["truth"], oracle.EXACT_TOLERANCE),
            oracle.Check(
                bool(np.all(report.coverage[restricted] == 1.0) and np.all(report.bias[:, restricted] == 0.0)),
                "a restricted contrast is not covered exactly",
            ),
            oracle.Check(
                report.replications == MC_REPLICATIONS and np.array_equal(report.bias, ref["bias"]),
                "replications differ from the first pass with the same seeds",
            ),
        ]
        rng = np.random.default_rng([self.seed, 5, self.pass_index])
        for r in rng.choice(MC_REPLICATIONS, size=MC_REFITS, replace=False):
            checks.append(self._refit(study, report, int(r)))
        return _first_failure(*checks)

    def _refit(self, study: _Study, report, r: int) -> oracle.Check:
        """Re-fit replication r from its assignment with the oracle."""
        ref = study.reference
        labels = [str(z) for z in _sample_assignment(study.design, [study.seed, r]).sequences]
        outcomes = np.array([ref["table"].outcomes[cx.as_sequence(z)][i] for i, z in enumerate(labels)])
        groups = oracle.group_statistics(outcomes, labels)
        weights = {z: cov for z, (_, _, cov) in groups.items()}
        fit = oracle.restricted_wls(
            2, ref["basis"], {z: n for z, (n, _, _) in groups.items()},
            {z: mean for z, (_, mean, _) in groups.items()}, weights,
        )
        point = ref["b"] @ fit.gamma
        point[ref["restricted"]] = 0.0
        members = {z: outcomes[np.array(labels) == z] for z in groups}
        variances = oracle.ehw_variances(2, fit, ref["b"], members, weights)
        half = oracle.normal_quantile(report.level) * np.sqrt(np.clip(variances, 0.0, None))
        margin = half - np.abs(point - ref["truth"])
        clear = np.abs(margin) > 1e-9
        covered = margin >= 0.0
        return _first_failure(
            oracle.close(report.bias[r] + report.truth, point, oracle.GAMMA_TOLERANCE),
            oracle.close(report.estimated_variances[r], variances, oracle.GAMMA_TOLERANCE),
            oracle.Check(
                bool(np.all(report.covered[r][clear] == covered[clear])),
                f"replication {r}: coverage indicator differs from the oracle",
            ),
        )

    def headline(self, passes) -> dict:
        return {"mc_reps_per_s": (_median_rate(passes), "1/s")}


# (name, horizon, scenario, order, counts)
AUDITS = (
    ("T2-b", 2, "b", 1, {"AA": 3, "AB": 3, "BA": 2, "BB": 2}),
    ("T3-c", 3, "c", 1, {"AAB": 3, "ABA": 3, "BAA": 3}),
)


@dataclass
class _Audit:
    name: str
    scenario: str
    order: int
    design: object
    table: object
    specs: list
    reference: dict = field(default_factory=dict)


class AuditExact(Workload):
    """The exact-audit half of the randomization workload."""

    def build(self, seed: int) -> None:
        self.audits = []
        for i, (name, horizon, scenario, order, counts) in enumerate(AUDITS):
            design = cx.CrossoverDesign(horizon, counts)
            table = cx.random_consistent_table(horizon, scenario, order, design.n_units, seed=_seed(seed, 6, i))
            scope = design.scope
            specs = [cx.instantaneous_effect(t, "A" * (t - 1), scope) for t in range(1, horizon + 1)]
            if horizon == 2:
                specs = cx.standard_two_period_specs(scope)
            self.audits.append(_Audit(name, scenario, order, design, table, specs))

    def warm(self) -> None:
        design = cx.CrossoverDesign(2, {"AB": 2, "BA": 2})
        table = cx.random_consistent_table(2, "b", 1, design.n_units, seed=0)
        cx.exact_randomization_audit(table, design, [cx.instantaneous_effect(1, "", design.scope)], "oracle", "b", 1)

    def run_pass(self) -> list[Op]:
        ops = []
        for audit in self.audits:
            result, error, started, seconds = _timed(
                lambda audit=audit: cx.exact_randomization_audit(
                    audit.table, audit.design, audit.specs, "oracle", audit.scenario, audit.order
                ),
            )
            expected = oracle.multinomial(list(audit.design.counts.values()))
            if error:
                ops.append(Op(audit.name, seconds, False, error, units=expected, started=started))
                continue
            with self.quiet():
                check = self.check(audit, result, expected)
            basis = audit.reference["basis"]
            sizes = _sizes(
                audit.design.n_units, len(audit.design.counts), basis.shape[0],
                basis.shape[0] - basis.shape[1], assignments=result.n_assignments,
            )
            ops.append(Op(audit.name, seconds, check.ok, check.detail, units=result.n_assignments, sizes=sizes, started=started))
        return ops

    def check(self, audit: _Audit, result, expected: int) -> oracle.Check:
        ref = audit.reference
        horizon = audit.design.horizon
        if not ref:
            ref["basis"] = oracle.class_basis(horizon, audit.scenario, audit.order)
            ref["truth"] = oracle.table_truth(oracle.estimand_matrix(cx.stack(audit.specs), horizon), audit.table)
        return _first_failure(
            oracle.Check(result.n_assignments == expected, f"{result.n_assignments} assignments, expected {expected}"),
            oracle.close(result.exact_mean, ref["truth"], oracle.EXACT_TOLERANCE),
            oracle.close(result.exact_mean, result.formula_mean, oracle.EXACT_TOLERANCE),
            oracle.close(result.exact_covariance, result.formula_covariance, oracle.EXACT_TOLERANCE),
        )

    def headline(self, passes) -> dict:
        return {"audit_assign_per_s": (_median_rate(passes), "1/s")}


class Randomization(Workload):
    """Monte Carlo studies and exact audits in one pass.

    Both are Python-heavy randomization loops over the same layers, and
    both are targets of the integer-coded randomization engine.  One
    workload with twice the run length is steadier than two on a shared
    host, whose co-tenant load moves these loops by up to 40% over tens of
    seconds.  Each half still reports its own figure.
    """

    name = "randomization"

    def __init__(self):
        self.parts = (MonteCarlo(), AuditExact())

    @property
    def tracer(self):
        return self.parts[0].tracer

    @tracer.setter
    def tracer(self, tracer):
        for part in self.parts:
            part.tracer = tracer

    def build(self, seed: int) -> None:
        for part in self.parts:
            part.build(seed)

    def warm(self) -> None:
        for part in self.parts:
            part.warm()

    def run_pass(self) -> list[Op]:
        return [op for part in self.parts for op in part.run_pass()]

    def headline(self, passes) -> dict:
        figures = {}
        for part, names in zip(self.parts, (MC_STUDIES, AUDITS)):
            own = {entry[0] for entry in names}
            figures.update(part.headline([[op for op in ops if op.name in own] for ops in passes]))
        return figures


# --- cli-analyst -------------------------------------------------------

# the implemented sequences of the T=6 design; identifiable under scenario
# b with k=2 at any unit count
LARGE_SEQUENCES = (
    "AAAABA AAABAA AAABAB AABAAB AABABA AABBAB ABABAA ABBABB BAAABA BABABB BABBBA BBAABB".split()
)
LARGE_ESTIMANDS = ("tau t=4 history=AAB", "carry t=5 k=1 prefix=AAB suffix=A")
# operations that fail today for a documented reason, with the
# exit code and output that mark that failure; each is still counted as
# failed.  The count-scaled identify call reports a rank deficit because the
# rank check runs on X'X + C'C, mixing an N-scale block with an O(1) block.
KNOWN_FAILURES = {"identify-10000": (3, "not identifiable")}


def _write_csv(path: Path, labels, outcomes) -> None:
    horizon = outcomes.shape[1]
    lines = ["unit,sequence," + ",".join(f"y{t}" for t in range(1, horizon + 1))]
    for i, (z, row) in enumerate(zip(labels, outcomes)):
        lines.append(f"u{i},{z}," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _random_data(rng, sequences, per_sequence, horizon):
    labels = np.repeat(np.array(sequences), per_sequence)
    labels = labels[rng.permutation(labels.size)]
    shift = {z: rng.normal(0.0, 1.0, horizon) for z in sequences}
    outcomes = np.array([shift[z] for z in labels]) + rng.standard_normal((labels.size, horizon))
    return [str(z) for z in labels], outcomes


class CliAnalyst(Workload):
    name = "cli-analyst"
    rss_from_children = True

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.spans_dir = None

    def build(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 7])
        work = self.workdir
        self.small = _random_data(rng, FOUR, 100, 2)
        _write_csv(work / "small.csv", *self.small)
        self.large = _random_data(rng, LARGE_SEQUENCES, 1000, 6)
        _write_csv(work / "large.csv", *self.large)
        for per in (1000, 10000):
            text = "T 6\n" + "".join(f"{z} {per}\n" for z in LARGE_SEQUENCES)
            (work / f"design{per}.txt").write_text(text)
        large_fit = ["fit", "--data", "large.csv", "--scenario", "b", "--k", "2", "--weights", "pooled"]
        for request in LARGE_ESTIMANDS:
            large_fit += ["--estimand", request]
        self.calls = [
            ("fit-small", ["fit", "--data", "small.csv", "--scenario", "b", "--k", "1"]),
            ("fit-closed", ["fit", "--data", "small.csv", "--scenario", "b", "--k", "1", "--engine", "closed-form"]),
            ("fit-large", large_fit),
            ("identify-1000", ["identify", "--design", "design1000.txt", "--scenario", "b", "--k", "2"]),
            ("identify-10000", ["identify", "--design", "design10000.txt", "--scenario", "b", "--k", "2"]),
        ]
        self.references = {}

    def trace_into(self, spans_dir: Path) -> None:
        """Run later calls through traced_cli.py, writing spans here."""
        self.spans_dir = spans_dir
        self.span_files = []

    def _command(self, name: str, argv: list[str]) -> list[str]:
        if self.spans_dir is None:
            return [sys.executable, "-m", "crossover.cli", *argv]
        spans = self.spans_dir / f"{name}-{len(self.span_files)}.json"
        self.span_files.append(spans)
        return [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]

    def run_pass(self) -> list[Op]:
        ops = []
        verdicts = []
        for name, argv in self.calls:
            command = self._command(name, argv)
            started = perf_counter()
            proc = subprocess.run(
                command, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
            seconds = perf_counter() - started
            check, sizes = self.check(name, proc, verdicts)
            code, text = KNOWN_FAILURES.get(name, (None, None))
            known = not check.ok and proc.returncode == code and text in proc.stdout
            ops.append(Op(name, seconds, check.ok, check.detail, known=known, sizes=sizes, started=started))
        return ops

    def check(self, name: str, proc, verdicts: list):
        ref = self.reference(name)
        sizes = _sizes(ref["units"], ref["sequences"], ref["p"], ref["m"], cli_calls=1)
        if name.startswith("identify"):
            return self._check_identify(proc, ref, verdicts), sizes
        if proc.returncode != 0:
            return oracle.Check(False, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"), sizes
        try:
            payload = json.loads(proc.stdout)
        except ValueError as exc:
            return oracle.Check(False, f"output is not JSON: {exc}"), sizes
        if name == "fit-closed":
            return self._check_closed(payload, ref), sizes
        return self._check_fit(payload, ref), sizes

    def reference(self, name: str) -> dict:
        """In-process library results for one call, computed once."""
        if name in self.references:
            return self.references[name]
        if name.startswith("identify"):
            per = int(name.split("-")[1])
            basis = oracle.class_basis(6, "b", 2)
            ref = {
                "units": per * len(LARGE_SEQUENCES),
                "sequences": len(LARGE_SEQUENCES),
                "p": basis.shape[0],
                "m": basis.shape[0] - basis.shape[1],
                "identifiable": oracle.identifiable(basis, 6, LARGE_SEQUENCES),
            }
        else:
            large = name == "fit-large"
            labels, outcomes = self.large if large else self.small
            horizon = outcomes.shape[1]
            design = cx.CrossoverDesign(horizon, {z: labels.count(z) for z in set(labels)})
            dataset = _ObservedDataset(design, tuple(labels), outcomes)
            scenario, order = "b", (2 if large else 1)
            fit = _feasible_rwls(dataset, scenario, order, "pooled" if large else "sample")
            if large:
                spec = cx.stack([_parse_estimand_request(r, design.scope) for r in LARGE_ESTIMANDS])
            else:
                spec = cx.stack(cx.standard_two_period_specs(design.scope))
            basis = oracle.class_basis(horizon, scenario, order)
            groups = oracle.group_statistics(outcomes, labels)
            weights = {str(z): fit.weight_model.matrix(z) for z in design.observed}
            reference = oracle.restricted_wls(
                horizon, basis, {z: n for z, (n, _, _) in groups.items()},
                {z: mean for z, (_, mean, _) in groups.items()}, weights,
            )
            ref = {
                "units": dataset.n_units,
                "sequences": len(design.counts),
                "p": fit.layout.size,
                "m": fit.restriction.n_rows,
                "fit": fit,
                "estimate": _estimate(fit, spec),
                "library": oracle.check_gamma(fit.gamma, reference),
                "groups": groups,
            }
            if name == "fit-closed":
                summary = _TwoPeriodSummary.from_dataset(dataset)
                ref["closed_se"] = {k: float(np.sqrt(v)) for k, v in _conservative_variances(summary, "b").items()}
        self.references[name] = ref
        return ref

    def _check_fit(self, payload: dict, ref: dict) -> oracle.Check:
        fit, result = ref["fit"], ref["estimate"]
        gamma = [row["estimate"] for row in payload["coefficients"]]
        rows = payload["estimands"]
        return _first_failure(
            ref["library"],
            oracle.Check([row["label"] for row in rows] == list(result.labels), "estimand labels differ"),
            oracle.close(gamma, fit.gamma, 1e-12),
            oracle.close([row["point"] for row in rows], result.point, 1e-12),
            oracle.close([row["se"] for row in rows], result.std_errors, 1e-12),
            oracle.close([row["ci_lower"] for row in rows], result.ci_lower, 1e-12),
            oracle.close([payload["wald"]["statistic"]], [result.wald_statistic], 1e-9),
        )

    def _check_closed(self, payload: dict, ref: dict) -> oracle.Check:
        """Scenario b on the four-sequence design: count-pooled group-mean contrasts."""
        groups = ref["groups"]

        def pooled(members, period):
            total = sum(groups[z][0] for z in members)
            return sum(groups[z][0] * groups[z][1][period] for z in members) / total

        expected = {
            "tau_1": pooled(("AA", "AB"), 0) - pooled(("BA", "BB"), 0),
            "tau_2": pooled(("AA", "BA"), 1) - pooled(("AB", "BB"), 1),
        }
        rows = {row["label"]: row for row in payload["estimands"]}
        if set(rows) != set(expected):
            return oracle.Check(False, f"closed-form labels {sorted(rows)}")
        labels = sorted(expected)
        return _first_failure(
            oracle.close([rows[k]["point"] for k in labels], [expected[k] for k in labels], 1e-12),
            oracle.close([rows[k]["se"] for k in labels], [ref["closed_se"][k] for k in labels], 1e-12),
        )

    def _check_identify(self, proc, ref: dict, verdicts: list) -> oracle.Check:
        lines = proc.stdout.splitlines()
        if not lines or not lines[0].startswith("global rank condition:"):
            return oracle.Check(False, f"exit {proc.returncode}: no verdict line")
        says = lines[0].split(":", 1)[1].strip().startswith("identifiable")
        if says != (proc.returncode == 0):
            return oracle.Check(False, f"exit {proc.returncode} disagrees with '{lines[0]}'")
        verdicts.append(says)
        per_mean = []
        for line in lines[2:]:
            z, t, verdict = line.split()[:3]
            wanted = oracle.mean_identified("b", 2, z, int(t), LARGE_SEQUENCES)
            per_mean.append(oracle.Check((verdict == "yes") == wanted, f"mean ({z}, {t}) verdict {verdict}"))
        verdict = oracle.check_verdict(says, ref["identifiable"])
        if not verdict.ok:
            verdict = oracle.Check(False, f"{verdict.detail} ({lines[0]})")
        return _first_failure(
            verdict,
            oracle.Check(len(set(verdicts)) == 1, "identify verdict changes with unit counts"),
            oracle.Check(len(per_mean) == ref["p"], f"{len(per_mean)} per-mean rows, expected {ref['p']}"),
            *per_mean,
        )

    def headline(self, passes) -> dict:
        def median_of(prefix):
            return statistics.median(op.seconds for ops in passes for op in ops if op.name.startswith(prefix))

        return {
            "cli_fit_small_s": (median_of("fit-small"), "s"),
            "cli_fit_closed_s": (median_of("fit-closed"), "s"),
            "cli_fit_large_s": (median_of("fit-large"), "s"),
            "cli_identify_s": (median_of("identify"), "s"),
        }


def create(name: str, workdir: Path, env: dict) -> Workload:
    if name == CliAnalyst.name:
        return CliAnalyst(workdir, env)
    for cls in (Randomization, FitHorizon):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown workload {name!r}")
