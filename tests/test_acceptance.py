"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline; a plain ``pytest`` run executes them all the same.
"""

import time

import numpy as np
import pytest

from crossover import (
    CrossoverDesign,
    ScenarioGenerator,
    WeightModel,
    assemble,
    enumerate_assignments,
    estimate,
    feasible_rwls,
    full_sequence_set,
    instantaneous_effect,
    is_identifiable,
    mean_derivation_time_invariant,
    mean_witness_carryover,
    oracle_variance,
    point_estimate,
    random_consistent_table,
    realize_dataset,
    run_monte_carlo,
    sequence_means,
    solve_restricted_wls,
    stack,
    standard_two_period_specs,
    true_value,
)
from crossover.identification import DifferencedMean, MeanTarget
from crossover.twoperiod import TwoPeriodSummary, working_weight_model
from conftest import gram_plus_restriction, make_dataset, nullspace_restricted_wls
from twoperiod_reference import (
    blue_2seq_scenario_a,
    blue_2seq_scenario_b,
    blue_2seq_scenario_c,
    blue_4seq_scenario_a,
    blue_4seq_scenario_b,
    blue_4seq_scenario_c,
    paired_difference_estimate,
)

SCOPE2 = full_sequence_set(2)
FOUR = ("AA", "AB", "BA", "BB")

# fits produced while running criteria 1-4, checked again by criterion 5
COLLECTED_FITS = []


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def oracle_weights(table, design):
    return WeightModel({z: table.covariance(z) for z in design.observed}, "user")


def enumerate_points(table, design, scenario, order, spec, weights):
    """Fixed-weight estimates over every assignment, collecting the fits."""
    restriction = assemble(scenario, design.horizon, design.scope, order)
    points = []
    base = None
    for assignment in enumerate_assignments(design):
        dataset = realize_dataset(table, assignment)
        fit = solve_restricted_wls(design, sequence_means(dataset), weights, restriction)
        COLLECTED_FITS.append(fit)
        base = base or fit
        points.append(point_estimate(fit, spec))
    return np.array(points), base


def test_c01_exact_unbiasedness_over_enumeration():
    started = time.perf_counter()
    design = CrossoverDesign(2, {"AB": 2, "BA": 2})
    table = random_consistent_table(2, "b", 1, 4, seed=101)
    spec = stack(
        [instantaneous_effect(1, "", SCOPE2), instantaneous_effect(2, "A", SCOPE2)]
    )
    points, _ = enumerate_points(table, design, "b", 1, spec, oracle_weights(table, design))
    gap = float(np.abs(points.mean(axis=0) - true_value(spec, table)).max())
    elapsed = time.perf_counter() - started
    report_line(
        1,
        "exact unbiasedness over the 6-assignment enumeration",
        gap < 1e-9 and elapsed < 1.0 and len(points) == 6,
        f"max |mean - truth| = {gap:.2e}, {elapsed:.2f}s",
    )


def test_c02_exact_variance_identity():
    started = time.perf_counter()
    worst = 0.0
    for counts, seed in [({"AB": 2, "BA": 2}, 102), ({z: 1 for z in FOUR}, 103)]:
        design = CrossoverDesign(2, counts)
        table = random_consistent_table(2, "b", 1, 4, seed=seed)
        weights = oracle_weights(table, design)
        spec = stack(
            [instantaneous_effect(1, "", SCOPE2), instantaneous_effect(2, "A", SCOPE2)]
        )
        points, base = enumerate_points(table, design, "b", 1, spec, weights)
        centered = points - points.mean(axis=0)
        empirical = centered.T @ centered / points.shape[0]
        formula = oracle_variance(base, spec, table)
        worst = max(worst, float(np.abs(empirical - formula).max()))
    elapsed = time.perf_counter() - started
    report_line(
        2,
        "exact variance identity on 6- and 24-assignment enumerations",
        worst < 1e-9 and elapsed < 5.0,
        f"max |empirical - formula| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_c03_closed_form_engine_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 0.0
    checks = 0
    for index in range(100):
        counts = dict(zip(FOUR, rng.integers(6, 13, size=4)))
        design = CrossoverDesign(2, {z: int(n) for z, n in counts.items()})
        dataset = make_dataset(design, rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        for scenario in ("a", "b", "c"):
            model = working_weight_model(dataset, scenario)
            order = None if scenario == "a" else 1
            fit = feasible_rwls(dataset, scenario, order, model)
            COLLECTED_FITS.append(fit)
            if scenario == "a":
                closed = blue_4seq_scenario_a(summary)
                result = estimate(fit, stack(standard_two_period_specs(design.scope)))
                for i, label in enumerate(result.labels):
                    worst = max(worst, abs(float(result.point[i]) - closed[label]))
                    checks += 1
            elif scenario == "b":
                closed = blue_4seq_scenario_b(summary)
                result = estimate(
                    fit,
                    stack(
                        [
                            instantaneous_effect(1, "", design.scope),
                            instantaneous_effect(2, "A", design.scope),
                        ]
                    ),
                )
                worst = max(worst, abs(float(result.point[0]) - closed["tau_1"]))
                worst = max(worst, abs(float(result.point[1]) - closed["tau_2"]))
                checks += 2
            else:
                closed = blue_4seq_scenario_c(summary, model.matrices)
                result = estimate(fit, instantaneous_effect(1, "", design.scope))
                worst = max(worst, abs(float(result.point[0]) - closed.value))
                checks += 1
    for index in range(100):
        n_ab, n_ba = (int(v) for v in rng.integers(6, 13, size=2))
        design = CrossoverDesign(2, {"AB": n_ab, "BA": n_ba})
        dataset = make_dataset(design, rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        restricted = CrossoverDesign(2, {"AB": n_ab, "BA": n_ba}, scope=("AB", "BA"))
        restricted_data = type(dataset)(restricted, dataset.assignments, dataset.outcomes)
        fit_a = feasible_rwls(restricted_data, "a", None)
        COLLECTED_FITS.append(fit_a)
        value = float(point_estimate(fit_a, instantaneous_effect(1, "", restricted.scope))[0])
        worst = max(worst, abs(value - blue_2seq_scenario_a(summary).tau_1))
        checks += 1
        fit_b = feasible_rwls(dataset, "b", 1, working_weight_model(dataset, "b"))
        COLLECTED_FITS.append(fit_b)
        closed_b = blue_2seq_scenario_b(summary)
        result = estimate(
            fit_b,
            stack(
                [
                    instantaneous_effect(1, "", design.scope),
                    instantaneous_effect(2, "A", design.scope),
                ]
            ),
        )
        worst = max(worst, abs(float(result.point[0]) - closed_b["tau_1"]))
        worst = max(worst, abs(float(result.point[1]) - closed_b["tau_2"]))
        checks += 2
        model_c = working_weight_model(dataset, "c")
        fit_c = feasible_rwls(dataset, "c", 1, model_c)
        COLLECTED_FITS.append(fit_c)
        closed_c = blue_2seq_scenario_c(summary, model_c.matrices)
        value = float(point_estimate(fit_c, instantaneous_effect(1, "", design.scope))[0])
        worst = max(worst, abs(value - closed_c.value))
        checks += 1
    elapsed = time.perf_counter() - started
    report_line(
        3,
        "closed-form vs engine on 200 random datasets",
        worst < 1e-8 and elapsed < 30.0,
        f"{checks} comparisons, max gap = {worst:.2e}, {elapsed:.1f}s",
    )


def test_c04_rank_regressions():
    started = time.perf_counter()
    ok = True
    details = []
    four = CrossoverDesign(2, {z: 3 for z in FOUR})
    for scenario, order in (("a", None), ("b", 1), ("c", 1)):
        check = is_identifiable(four, assemble(scenario, 2, four.scope, order))
        ok = ok and check.identifiable
    two = CrossoverDesign(2, {"AB": 4, "BA": 5})
    restriction_a = assemble("a", 2, two.scope)
    check_a = is_identifiable(two, restriction_a)
    ok = ok and not check_a.identifiable
    gram = gram_plus_restriction(two, restriction_a)
    from crossover import CoefficientLayout

    layout = CoefficientLayout(2, two.scope)
    zero_cols = [
        col
        for col in range(layout.size)
        if np.all(gram[:, col] == 0) and np.all(gram[col, :] == 0)
    ]
    ok = ok and zero_cols == [layout.column(2, "AA"), layout.column(2, "BB")]
    details.append(f"zero columns at {zero_cols}")
    restriction_b = assemble("b", 2, two.scope, 1)
    worst_rel = 0.0
    for n_ab, n_ba in [(1, 1), (2, 3), (5, 4), (7, 2), (10, 10)]:
        design = CrossoverDesign(2, {"AB": n_ab, "BA": n_ba})
        det = float(np.linalg.det(gram_plus_restriction(design, restriction_b)))
        expected = float((n_ab * n_ba) ** 2)
        worst_rel = max(worst_rel, abs(det - expected) / expected)
    ok = ok and worst_rel < 1e-8
    details.append(f"max relative det error = {worst_rel:.2e}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report_line(4, "rank regressions and the determinant identity", ok, "; ".join(details))


def test_c05_restriction_satisfaction_of_collected_fits():
    checked = len(COLLECTED_FITS)
    worst = 0.0
    for fit in COLLECTED_FITS:
        bound = 1e-9 * (1.0 + float(np.abs(fit.gamma).max()))
        worst = max(worst, fit.restriction_residual / bound)
    report_line(
        5,
        "restriction satisfaction of every fit from criteria 1-4",
        checked > 200 and worst <= 1.0,
        f"{checked} fits, worst residual at {worst:.3f} of the bound",
    )


def test_c06_nullspace_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for index in range(60):
        horizon = int(rng.integers(1, 4))
        scope = full_sequence_set(horizon)
        counts = {z: int(rng.integers(2, 5)) for z in scope}
        design = CrossoverDesign(horizon, counts)
        dataset = make_dataset(design, rng)
        mats = {}
        for z in design.observed:
            a = rng.normal(size=(horizon, horizon))
            mats[z] = a @ a.T + 0.5 * np.eye(horizon)
        weights = WeightModel(mats, "user")
        layout_size = horizon * len(scope)
        n_rows = int(rng.integers(0, min(5, layout_size)))
        from crossover.constraints import CoefficientLayout, restriction_from_rows

        layout = CoefficientLayout(horizon, scope)
        rows = rng.normal(size=(n_rows, layout.size))
        restriction = restriction_from_rows(layout, rows if n_rows else np.zeros((0, layout.size)))
        fit = solve_restricted_wls(design, sequence_means(dataset), weights, restriction)
        expected = nullspace_restricted_wls(dataset, weights, restriction)
        worst = max(worst, float(np.abs(fit.gamma - expected).max()))
    for index in range(40):
        design = CrossoverDesign(2, {"AB": int(rng.integers(3, 7)), "BA": int(rng.integers(3, 7))})
        dataset = make_dataset(design, rng)
        scenario = ("b", "c")[index % 2]
        restriction = assemble(scenario, 2, design.scope, 1)
        mats = {}
        for z in design.observed:
            a = rng.normal(size=(2, 2))
            mats[z] = a @ a.T + 0.5 * np.eye(2)
        weights = WeightModel(mats, "user")
        fit = solve_restricted_wls(design, sequence_means(dataset), weights, restriction)
        expected = nullspace_restricted_wls(dataset, weights, restriction)
        worst = max(worst, float(np.abs(fit.gamma - expected).max()))
    elapsed = time.perf_counter() - started
    report_line(
        6,
        "stationarity solve equals the null-space oracle on 100 instances",
        worst < 1e-9 and elapsed < 10.0,
        f"max gap = {worst:.2e}, {elapsed:.1f}s",
    )


STUDY_DESIGNS = {
    "four-sequence": CrossoverDesign(2, {z: 100 for z in FOUR}),
    "two-sequence": CrossoverDesign(2, {"AB": 200, "BA": 200}),
}
STUDY_SCENARIOS = {
    "four-sequence": ("a", "b", "c"),
    "two-sequence": ("b", "c"),
}
REPLICATIONS = 2000


def run_studies(kind, generator_seed, assignment_seed):
    studies = {}
    for design_name, design in STUDY_DESIGNS.items():
        for scenario in STUDY_SCENARIOS[design_name]:
            generator = ScenarioGenerator(kind=kind, scenario=scenario, seed=generator_seed)
            studies[(design_name, scenario)] = run_monte_carlo(
                generator,
                design,
                standard_two_period_specs(SCOPE2),
                replications=REPLICATIONS,
                weight_choice="sample",
                seed=assignment_seed,
            )
    return studies


@pytest.fixture(scope="module")
def constant_studies():
    return run_studies("constant_effect", 814, 515)


@pytest.fixture(scope="module")
def heterogeneous_studies():
    return run_studies("gaussian_model", 217, 118)


def test_c07_coverage_constant_effect_model(constant_studies):
    failures = []
    rows = []
    for (design_name, scenario), report in sorted(constant_studies.items()):
        for i, label in enumerate(report.labels):
            if abs(report.truth[i]) < 1e-12:
                continue
            coverage = float(report.coverage[i])
            rows.append(f"{design_name}/{scenario}/{label}={coverage:.3f}")
            if not 0.93 <= coverage <= 0.97:
                failures.append(rows[-1])
    report_line(
        7,
        "constant-effect coverage within [0.93, 0.97]",
        not failures,
        "; ".join(failures) if failures else f"{len(rows)} cells, all in band",
    )


def test_c08_coverage_heterogeneous_model(heterogeneous_studies):
    failures = []
    cells = 0
    for (design_name, scenario), report in sorted(heterogeneous_studies.items()):
        for i, label in enumerate(report.labels):
            coverage = float(report.coverage[i])
            cells += 1
            restricted = scenario in ("b", "c") and label.startswith("tau_2^1")
            if restricted:
                if coverage != 1.0 or np.any(report.bias[:, i] != 0.0):
                    failures.append(f"{design_name}/{scenario}/{label} not exactly covered")
            elif coverage < 0.95:
                failures.append(f"{design_name}/{scenario}/{label}={coverage:.3f}")
    report_line(
        8,
        "heterogeneous coverage at or above nominal",
        not failures,
        "; ".join(failures) if failures else f"{cells} cells checked",
    )


def test_c09_sandwich_variance_is_conservative(heterogeneous_studies):
    failures = []
    for (design_name, scenario), report in sorted(heterogeneous_studies.items()):
        empirical = report.empirical_variance
        mc_se = empirical * np.sqrt(2.0 / (report.replications - 1))
        mean_estimated = report.mean_estimated_variance
        for i, label in enumerate(report.labels):
            if mean_estimated[i] < empirical[i] - 3.0 * mc_se[i]:
                failures.append(
                    f"{design_name}/{scenario}/{label}: "
                    f"{mean_estimated[i]:.4g} < {empirical[i]:.4g} - 3se"
                )
    report_line(
        9,
        "mean estimated variance at least the empirical variance",
        not failures,
        "; ".join(failures) if failures else "all estimands conservative",
    )


def test_c10_monotone_efficiency(constant_studies, heterogeneous_studies):
    failures = []
    for name, studies in (("constant", constant_studies), ("heterogeneous", heterogeneous_studies)):
        spread = {}
        noise = {}
        for scenario in ("a", "b", "c"):
            report = studies[("four-sequence", scenario)]
            index = list(report.labels).index("tau_1")
            spread[scenario] = float(report.empirical_variance[index])
            noise[scenario] = spread[scenario] * np.sqrt(2.0 / (report.replications - 1))
        if spread["b"] > spread["a"] + 2 * (noise["a"] + noise["b"]):
            failures.append(f"{name}: b > a ({spread['b']:.4g} vs {spread['a']:.4g})")
        if spread["c"] > spread["b"] + 2 * (noise["b"] + noise["c"]):
            failures.append(f"{name}: c > b ({spread['c']:.4g} vs {spread['b']:.4g})")
    report_line(
        10,
        "period-1 contrast variance shrinks from scenario a to c",
        not failures,
        "; ".join(failures) if failures else "ordering holds on both models",
    )


def test_c11_matched_pair_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(50):
        size = int(rng.integers(3, 9))
        design = CrossoverDesign(2, {"AB": size, "BA": size})
        dataset = make_dataset(design, rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        closed = blue_2seq_scenario_b(summary)
        combined = (closed["tau_1"] + closed["tau_2"]) / 2.0
        worst = max(worst, abs(combined - paired_difference_estimate(dataset)))
    elapsed = time.perf_counter() - started
    report_line(
        11,
        "matched-pair equivalence on 50 random datasets",
        worst < 1e-10 and elapsed < 5.0,
        f"max gap = {worst:.2e}, {elapsed:.1f}s",
    )


def test_c12_per_mean_identification_examples():
    started = time.perf_counter()
    ok = True
    details = []
    witness = mean_witness_carryover("AAA", 3, 2, ("BAA", "ABB"))
    ok = ok and witness is not None and str(witness) == "BAA"
    details.append(f"order-2 window AA at period 3 <- {witness}")
    derivation = mean_derivation_time_invariant("ABA", 2, 2, ("AAB", "BAA"))
    ok = ok and isinstance(derivation, DifferencedMean)
    if isinstance(derivation, DifferencedMean):
        ok = ok and derivation.target == MeanTarget(2, "AB")
        ok = ok and derivation.other_period == 3
        ok = ok and derivation.reference_window == "AA"
        parts = {component.target for component in derivation.components}
        ok = ok and parts == {MeanTarget(3, "AB"), MeanTarget(2, "AA"), MeanTarget(3, "AA")}
        details.append(derivation.describe())
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report_line(12, "documented identification witnesses and derivation", ok, "; ".join(details))
