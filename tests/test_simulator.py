import re
import tracemalloc

import numpy as np
import pytest

from crossover import (
    ConditioningError,
    CrossoverDesign,
    DegenerateCovarianceError,
    EnumerationSizeError,
    MissingSequenceError,
    NotIdentifiableError,
    ObservedDataset,
    ScenarioGenerator,
    WeightModel,
    as_sequence,
    assemble,
    carryover_effect,
    check_table_consistency,
    emit_bias_distribution,
    enumerate_assignments,
    enumerate_codes,
    estimate,
    exact_randomization_audit,
    feasible_rwls,
    full_sequence_set,
    generate_table,
    implied_estimator_weights,
    individual_effects,
    instantaneous_effect,
    random_consistent_table,
    realize_dataset,
    run_monte_carlo,
    sample_assignment,
    sample_covariances,
    solve_restricted_wls,
    stack,
    standard_two_period_specs,
    true_value,
)
from crossover import sequences, simulator

SCOPE2 = full_sequence_set(2)


class TestGenerateTable:
    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    def test_gaussian_tables_satisfy_their_restrictions(self, scenario):
        generator = ScenarioGenerator(kind="gaussian_model", scenario=scenario, seed=5)
        table = generate_table(generator, 50)
        restriction = assemble(scenario, 2, SCOPE2, 1)
        residual = check_table_consistency(table, restriction)
        assert residual < 1e-12

    def test_scenario_c_individual_level_identities(self):
        generator = ScenarioGenerator(kind="gaussian_model", scenario="c", seed=6)
        table = generate_table(generator, 20)
        lhs = table.outcomes[as_sequence("AA")][:, 1] - table.outcomes[as_sequence("AB")][:, 1]
        rhs = table.outcomes[as_sequence("AA")][:, 0] - table.outcomes[as_sequence("BA")][:, 0]
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_constant_effect_unit_level_contrast(self):
        generator = ScenarioGenerator(kind="constant_effect", seed=7, tau1=1.0, tau2=1.0)
        table = generate_table(generator, 30)
        tau1_spec = instantaneous_effect(1, "", SCOPE2)
        per_unit = individual_effects(tau1_spec, table)
        assert np.allclose(per_unit, 1.0, atol=1e-12)

    def test_invalid_correlation_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGenerator(rho=1.0)

    def test_same_seed_same_table(self):
        generator = ScenarioGenerator(seed=11)
        first = generate_table(generator, 10)
        second = generate_table(generator, 10)
        for z in SCOPE2:
            assert np.array_equal(first.outcomes[z], second.outcomes[z])


class TestRandomConsistentTable:
    @pytest.mark.parametrize(
        "horizon,scenario,order", [(2, "a", 1), (3, "b", 2), (3, "c", 1), (4, "c", 2)]
    )
    def test_tables_satisfy_their_restrictions(self, horizon, scenario, order):
        table = random_consistent_table(horizon, scenario, order, 9, seed=3)
        restriction = assemble(scenario, horizon, full_sequence_set(horizon), order)
        assert check_table_consistency(table, restriction) < 1e-12

    @pytest.mark.parametrize(
        "horizon,scenario,order,scope",
        [
            (3, "a", 1, None),
            (4, "b", 2, None),
            (4, "c", 1, None),
            (4, "c", 3, None),
            (4, "c", 2, ("ABAB", "BAAA", "BBAB")),
            (5, "b", 5, ("AABBA", "BABAB")),
        ],
    )
    def test_draws_match_the_hand_written_generator(self, horizon, scenario, order, scope):
        # the generator the class map replaced, kept as the reference
        rng = np.random.default_rng(17)
        values = {}

        def draw(key):
            if key not in values:
                center = rng.normal(0.0, 2.0)
                values[key] = center + 0.5 * rng.standard_normal(7)
            return values[key]

        words = sorted(scope) if scope else [str(z) for z in full_sequence_set(horizon)]
        table = random_consistent_table(horizon, scenario, order, 7, scope=scope, seed=17, spread=0.5)
        for word in words:
            for t in range(1, horizon + 1):
                if scenario == "a":
                    expected = draw(("prefix", t, word[:t]))
                elif scenario == "b" or t < order:
                    expected = draw(("window", t, word[max(0, t - order) : t]))
                else:
                    expected = draw(("level", t)) + draw(("effect", word[t - order : t]))
                assert table.outcomes[as_sequence(word)][:, t - 1].tobytes() == expected.tobytes()

    def test_inconsistent_table_detected(self, rng):
        from crossover import PotentialOutcomeTable

        table = PotentialOutcomeTable(2, {z: rng.normal(size=(6, 2)) for z in SCOPE2})
        restriction = assemble("b", 2, SCOPE2, 1)
        with pytest.raises(ValueError):
            check_table_consistency(table, restriction)


class TestRunMonteCarlo:
    def test_refuses_unidentifiable_pairs(self):
        design = CrossoverDesign(2, {"AB": 4, "BA": 4})
        generator = ScenarioGenerator(scenario="a", seed=1)
        with pytest.raises(NotIdentifiableError):
            run_monte_carlo(generator, design, standard_two_period_specs(SCOPE2), 5)

    def test_restricted_contrasts_have_exactly_zero_bias(self):
        design = CrossoverDesign(2, {"AB": 10, "BA": 10})
        generator = ScenarioGenerator(scenario="b", seed=2)
        report = run_monte_carlo(
            generator, design, standard_two_period_specs(SCOPE2), replications=20, seed=3
        )
        for i, label in enumerate(report.labels):
            if label.startswith("tau_2^1"):
                assert np.all(report.bias[:, i] == 0.0)
                assert report.coverage[i] == 1.0

    def test_reproducible_given_seeds(self):
        design = CrossoverDesign(2, {"AA": 5, "AB": 5, "BA": 5, "BB": 5})
        generator = ScenarioGenerator(scenario="b", seed=4)
        specs = standard_two_period_specs(SCOPE2)
        first = run_monte_carlo(generator, design, specs, replications=8, seed=9)
        second = run_monte_carlo(generator, design, specs, replications=8, seed=9)
        assert np.array_equal(first.bias, second.bias)
        assert np.array_equal(first.estimated_variances, second.estimated_variances)

    def test_identification_is_checked_once_per_study(self, monkeypatch):
        from crossover import constraints

        # under scenario b the rank is read from the classes hit, with no SVD
        svds, records = [], []
        svd, record = np.linalg.svd, constraints.ImplementedSet
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: svds.append(m.shape) or svd(m, *a, **k))
        monkeypatch.setattr(constraints, "ImplementedSet", lambda *fields: records.append(fields) or record(*fields))
        design = CrossoverDesign(2, {"AA": 5, "AB": 5, "BA": 5, "BB": 5})
        generator = ScenarioGenerator(scenario="b", seed=4)
        run_monte_carlo(generator, design, standard_two_period_specs(SCOPE2), replications=8, seed=9)
        assert svds == [] and len(records) == 1

    def test_accepts_prebuilt_table(self):
        design = CrossoverDesign(2, {"AB": 6, "BA": 6})
        table = random_consistent_table(2, "b", 1, 12, seed=8)
        report = run_monte_carlo(
            table,
            design,
            [instantaneous_effect(1, "", SCOPE2)],
            replications=6,
            scenario="b",
            carryover_order=1,
            seed=1,
        )
        assert report.replications == 6
        assert report.generator_seed is None


    @pytest.mark.parametrize("replications", [1, 0, -3])
    def test_fewer_than_two_replications_rejected(self, replications):
        design = CrossoverDesign(2, {"AB": 6, "BA": 6})
        generator = ScenarioGenerator(scenario="b", seed=2)
        with pytest.raises(ValueError, match="at least 2 replications"):
            run_monte_carlo(generator, design, standard_two_period_specs(SCOPE2), replications)

    def test_explicit_carryover_order_zero_is_not_replaced(self):
        design = CrossoverDesign(2, {z: 5 for z in ("AA", "AB", "BA", "BB")})
        generator = ScenarioGenerator(scenario="b", carryover_order=2, seed=2)
        with pytest.raises(ValueError, match=re.escape("carryover order 0 outside [1, 2]")):
            run_monte_carlo(generator, design, standard_two_period_specs(SCOPE2), 4, carryover_order=0)


class TestErrorsBeforeAnyDraw:
    """Errors a fit raises for any data come before the first draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args):
            raise AssertionError("an assignment was drawn")

        monkeypatch.setattr(simulator, "sample_code_rows", draw)

    def run(self, counts, **kwargs):
        design = CrossoverDesign(2, counts)
        generator = ScenarioGenerator(scenario="b", seed=3)
        return run_monte_carlo(generator, design, standard_two_period_specs(SCOPE2), 4, **kwargs)

    def test_unknown_weight_choice(self):
        message = "weights must be 'sample', 'pooled', or a WeightModel, got 'bogus'"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.run({"AB": 4, "BA": 4}, weight_choice="bogus")

    def test_confidence_level(self):
        with pytest.raises(ValueError, match=re.escape("confidence level must be in (0, 1), got 1.5")):
            self.run({"AB": 4, "BA": 4}, level=1.5)

    def test_one_unit_sequence_with_sample_weights(self):
        with pytest.raises(DegenerateCovarianceError, match=r"^sequence AB has 1 unit\(s\); need at least 2"):
            self.run({"AA": 3, "AB": 1, "BA": 3, "BB": 3})

    def test_one_unit_sequence_with_pooled_weights(self):
        pattern = r"^entry \(1,1\) pooled over \[.*\] has no degrees of freedom$"
        with pytest.raises(DegenerateCovarianceError, match=pattern):
            self.run({"AB": 1, "BA": 4}, weight_choice="pooled")

    def test_missing_user_weight(self):
        weights = WeightModel({"AB": np.eye(2)}, "user")
        with pytest.raises(MissingSequenceError, match="lacks a matrix for BA"):
            self.run({"AB": 4, "BA": 4}, weight_choice=weights)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            self.run({"AB": 4, "BA": 4}, seed=-1)

    @pytest.mark.parametrize("seed", [3.0, np.float64(3.0), "3", [3]])
    def test_non_integer_seed(self, seed):
        with pytest.raises(TypeError, match="seed must be integer"):
            self.run({"AB": 4, "BA": 4}, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(9), True, False, 2**64 + 5])
    def test_integer_like_and_wide_seeds_keep_their_streams(self, monkeypatch, seed):
        monkeypatch.setattr(simulator, "sample_code_rows", sequences.sample_code_rows)
        design = CrossoverDesign(2, {"AB": 4, "BA": 3, "BB": 5})
        generator = ScenarioGenerator(scenario="b", seed=3)
        table = generate_table(generator, design.n_units, design)
        specs = standard_two_period_specs(SCOPE2)
        report = run_monte_carlo(generator, design, specs, 6, seed=seed)
        bias, variances, covered = reference_monte_carlo(table, design, specs, 6, "sample", seed, "b")
        assert np.array_equal(report.bias, bias)
        assert np.array_equal(report.estimated_variances, variances)
        assert np.array_equal(report.covered, covered)


class TestMemory:
    def test_peak_does_not_grow_with_replications(self):
        design = CrossoverDesign(2, {z: 100 for z in ("AA", "AB", "BA", "BB")})
        generator = ScenarioGenerator(scenario="a", seed=4)
        specs = standard_two_period_specs(SCOPE2)
        run_monte_carlo(generator, design, specs, replications=2, seed=1)
        peaks = []
        for replications in (100, 2000):
            tracemalloc.start()
            try:
                run_monte_carlo(generator, design, specs, replications=replications, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    @staticmethod
    def traced_peak(call) -> int:
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_four_sequence_study_holds_one_chunk_without_a_stack_copy(self):
        # one chunk's gather and its centred groups come to 2.4 x the chunk
        # budget; another copy of the (C, N, T) stack would add about 1 x
        design = CrossoverDesign(2, {z: 100 for z in ("AA", "AB", "BA", "BB")})
        generator = ScenarioGenerator(scenario="b", seed=4)
        specs = standard_two_period_specs(SCOPE2)
        peak = self.traced_peak(lambda: run_monte_carlo(generator, design, specs, replications=300, seed=1))
        assert peak <= 3.2 * simulator.MC_CHUNK_BYTES

    def test_audit_holds_at_most_two_point_arrays(self):
        # 25,200 assignments: the peak is one gather of the partial sums,
        # the last level's (A, 5) floats beside the level before, 2.04 MiB
        design = CrossoverDesign(2, {"AA": 3, "AB": 3, "BA": 2, "BB": 2})
        table = random_consistent_table(2, "b", 1, design.n_units, seed=6)
        specs = standard_two_period_specs(design.scope)
        peak = self.traced_peak(lambda: exact_randomization_audit(table, design, specs, "oracle", "b", 1))
        assert peak <= 1.1 * 2.24 * 2**20


def reference_monte_carlo(table, design, specs, replications, weights, seed, scenario, order=1, level=0.95):
    """Per-replication Assignment path: sample, realize from the sequences,
    fit, estimate."""
    stacked = stack(specs)
    restriction = assemble(scenario, design.horizon, design.scope, order)
    truth = true_value(stacked, table)
    bias, variances, covered = [], [], []
    for r in range(replications):
        assignment = sample_assignment(design, [seed, r])
        outcomes = np.array([table.outcomes[z][i] for i, z in enumerate(assignment.sequences)])
        dataset = ObservedDataset(design, assignment.sequences, outcomes)
        fit = feasible_rwls(dataset, scenario, order, weights, restriction)
        result = estimate(fit, stacked, level)
        bias.append(result.point - truth)
        variances.append(np.diag(result.covariance))
        covered.append((result.ci_lower <= truth) & (truth <= result.ci_upper))
    return np.array(bias), np.array(variances), np.array(covered)


class TestCodedEngineMatchesAssignmentPath:
    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    @pytest.mark.parametrize("weights", ["sample", "pooled", "user"])
    def test_monte_carlo_is_bit_identical(self, scenario, weights):
        design = CrossoverDesign(2, {z: 6 for z in ("AA", "AB", "BA", "BB")})
        generator = ScenarioGenerator(scenario=scenario, seed=31)
        table = generate_table(generator, design.n_units, design)
        if weights == "user":
            weights = WeightModel({z: [[2.0, 0.5], [0.5, 1.0]] for z in design.observed}, "user")
        specs = standard_two_period_specs(SCOPE2)
        report = run_monte_carlo(
            generator, design, specs, replications=12, weight_choice=weights, seed=17
        )
        bias, variances, covered = reference_monte_carlo(
            table, design, specs, 12, weights, 17, scenario
        )
        assert np.array_equal(report.bias, bias)
        assert np.array_equal(report.estimated_variances, variances)
        assert np.array_equal(report.covered, covered)

    @pytest.mark.parametrize("scenario,order", [("a", 1), ("b", 1), ("b", 2), ("c", 1)])
    @pytest.mark.parametrize("weights", ["sample", "pooled", "user"])
    @pytest.mark.parametrize("units", [4, 3])
    def test_three_period_monte_carlo_is_bit_identical(self, scenario, order, weights, units):
        # at 3 units per sequence (N_z <= T) every sample covariance is
        # singular and repaired
        design = CrossoverDesign(3, {z: units for z in full_sequence_set(3)})
        table = random_consistent_table(3, scenario, order, design.n_units, seed=41)
        if weights == "user":
            weights = WeightModel({z: np.eye(3) + 0.4 for z in design.observed}, "user")
        specs = [instantaneous_effect(t, "A" * (t - 1), design.scope) for t in (1, 2, 3)]
        specs.append(carryover_effect(3, 1, "A", "B", design.scope))
        report = run_monte_carlo(
            table, design, specs, replications=10, weight_choice=weights, level=0.9,
            seed=5, scenario=scenario, carryover_order=order,
        )
        expected = reference_monte_carlo(table, design, specs, 10, weights, 5, scenario, order, 0.9)
        assert np.array_equal(report.bias, expected[0])
        assert np.array_equal(report.estimated_variances, expected[1])
        assert np.array_equal(report.covered, expected[2])

    def test_sample_weights_are_repaired_when_groups_are_small(self):
        design = CrossoverDesign(3, {z: 3 for z in full_sequence_set(3)})
        table = random_consistent_table(3, "b", 1, design.n_units, seed=41)
        dataset = realize_dataset(table, sample_assignment(design, [5, 0]))
        assert sample_covariances(dataset).repaired == design.observed

    @pytest.mark.parametrize("weights", ["sample", "user"])
    def test_chunk_boundary_is_bit_identical(self, monkeypatch, weights):
        monkeypatch.setattr(simulator, "chunk_size", lambda design, classes: 64)
        replications = 65
        design = CrossoverDesign(2, {"AB": 5, "BA": 4, "BB": 6})
        table = random_consistent_table(2, "b", 1, design.n_units, seed=12)
        if weights == "user":
            weights = WeightModel({z: [[1.0, 0.2], [0.2, 3.0]] for z in design.observed}, "user")
        specs = standard_two_period_specs(SCOPE2)
        report = run_monte_carlo(
            table, design, specs, replications, weights, seed=8, scenario="b", carryover_order=1
        )
        expected = reference_monte_carlo(table, design, specs, replications, weights, 8, "b")
        assert np.array_equal(report.bias, expected[0])
        assert np.array_equal(report.estimated_variances, expected[1])
        assert np.array_equal(report.covered, expected[2])

    @pytest.mark.parametrize(
        "horizon,scenario,counts",
        [(2, "b", {"AA": 2, "AB": 2, "BA": 1, "BB": 2}), (3, "c", {"AAB": 2, "ABA": 2, "BAA": 3})],
    )
    def test_audit_moments_match_assignment_loop(self, horizon, scenario, counts):
        design = CrossoverDesign(horizon, counts)
        table = random_consistent_table(horizon, scenario, 1, design.n_units, seed=23)
        specs = [instantaneous_effect(t, "A" * (t - 1), design.scope) for t in range(1, horizon + 1)]
        result = exact_randomization_audit(table, design, specs, "oracle", scenario, 1)
        weights = WeightModel({z: table.covariance(z) for z in design.observed}, "user")
        zero_means = {z: np.zeros(horizon) for z in design.observed}
        base = solve_restricted_wls(design, zero_means, weights, assemble(scenario, horizon, design.scope, 1))
        implied = implied_estimator_weights(base, stack(specs))
        points = []
        for assignment in enumerate_assignments(design):
            point = np.zeros(len(specs))
            for z in design.observed:
                members = [i for i, zi in enumerate(assignment.sequences) if zi == z]
                point += implied[z] @ table.outcomes[z][members].mean(axis=0)
            points.append(point)
        points = np.array(points)
        mean = points.mean(axis=0)
        covariance = (points - mean).T @ (points - mean) / points.shape[0]
        assert result.n_assignments == points.shape[0]
        assert np.abs(result.exact_mean - mean).max() <= 1e-12
        assert np.abs(result.exact_covariance - covariance).max() <= 1e-12


class TestExactAudit:
    def test_refuses_designs_above_the_enumeration_cap(self):
        design = CrossoverDesign(1, {"A": 15, "B": 15})
        table = random_consistent_table(1, "b", 1, design.n_units, seed=1)
        with pytest.raises(EnumerationSizeError):
            exact_randomization_audit(
                table, design, [instantaneous_effect(1, "", design.scope)], "oracle", "b", 1
            )

    def test_every_entry_point_refuses_the_cap_with_one_message(self):
        design = CrossoverDesign(1, {"A": 15, "B": 15})
        table = random_consistent_table(1, "b", 1, design.n_units, seed=1)
        message = re.escape("155117520 assignments exceed the enumeration cap of 1000000")
        # the walk checks the cap when called, before its first step
        with pytest.raises(EnumerationSizeError, match=message):
            sequences.enumeration_walk(design)
        with pytest.raises(EnumerationSizeError, match=message):
            enumerate_codes(design)
        with pytest.raises(EnumerationSizeError, match=message):
            enumerate_assignments(design)
        with pytest.raises(EnumerationSizeError, match=message):
            exact_randomization_audit(table, design, [instantaneous_effect(1, "", design.scope)], "oracle", "b", 1)

    @pytest.mark.parametrize(
        "horizon,scenario,counts",
        [
            pytest.param(2, "b", {"AA": 3, "AB": 3, "BA": 2, "BB": 2}, id="T2-b"),
            pytest.param(3, "c", {"AAB": 3, "ABA": 3, "BAA": 3}, id="T3-c"),
        ],
    )
    def test_points_are_summed_in_unit_order(self, horizon, scenario, counts):
        # the sum over units, in unit order, of every row of the code matrix
        design = CrossoverDesign(horizon, counts)
        table = random_consistent_table(horizon, scenario, 1, design.n_units, seed=6)
        specs = [instantaneous_effect(t, "A" * (t - 1), design.scope) for t in range(1, horizon + 1)]
        if horizon == 2:
            specs = standard_two_period_specs(design.scope)
        result = exact_randomization_audit(table, design, specs, "oracle", scenario, 1)
        weights = WeightModel({z: table.covariance(z) for z in design.observed}, "user")
        zero_means = {z: np.zeros(horizon) for z in design.observed}
        base = solve_restricted_wls(design, zero_means, weights, assemble(scenario, horizon, design.scope, 1))
        implied = implied_estimator_weights(base, stack(specs))
        contrib = np.stack([table.outcomes[z] @ implied[z].T / n for z, n in design.counts.items()])
        codes = enumerate_codes(design)
        points = np.zeros((codes.shape[0], len(stack(specs).labels)))
        for i in range(design.n_units):
            points += contrib[codes[:, i], i]
        mean = points.mean(axis=0)
        centered = points - mean
        assert np.array_equal(result.exact_mean, mean)
        assert np.array_equal(result.exact_covariance, centered.T @ centered / points.shape[0])


    def test_oracle_covariance_below_the_repair_floor_is_refused(self):
        design = CrossoverDesign(2, {"AB": 1, "BA": 1})
        table = random_consistent_table(2, "b", 1, 2, seed=3)
        specs = [instantaneous_effect(1, "", design.scope)]
        with pytest.raises(ConditioningError, match=r"\['AB', 'BA'\]"):
            exact_randomization_audit(table, design, specs, "oracle", "b", 1)

    def test_single_assignment_design_has_zero_variance(self):
        from crossover import EstimandSpec

        design = CrossoverDesign(2, {"AB": 3}, scope=("AB",))
        table = random_consistent_table(2, "b", 1, 3, scope=("AB",), seed=10)
        period2_mean = EstimandSpec(2, design.scope, {"AB": [[0.0, 1.0]]}, ("mean_2(AB)",))
        result = exact_randomization_audit(
            table, design, [period2_mean], "oracle", "b", 1
        )
        assert result.n_assignments == 1
        assert np.allclose(result.exact_covariance, 0.0)

    def test_exact_mean_and_variance_match_formulas(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        table = random_consistent_table(2, "b", 1, 4, seed=12)
        result = exact_randomization_audit(
            table, design, standard_two_period_specs(SCOPE2)[:3], "oracle", "b", 1
        )
        assert np.abs(result.exact_mean - result.formula_mean).max() < 1e-9
        assert np.abs(result.exact_covariance - result.formula_covariance).max() < 1e-9


class TestBiasCsv:
    def test_header_and_row_count(self):
        design = CrossoverDesign(2, {"AB": 6, "BA": 6})
        generator = ScenarioGenerator(scenario="b", seed=14)
        report = run_monte_carlo(
            generator, design, standard_two_period_specs(SCOPE2), replications=4, seed=2
        )
        text = emit_bias_distribution(report)
        lines = text.strip().splitlines()
        assert lines[0] == "scenario,estimand,replication,bias"
        assert len(lines) == 1 + 4 * 5

    def test_values_round_trip_through_formatting(self):
        design = CrossoverDesign(2, {"AB": 6, "BA": 6})
        generator = ScenarioGenerator(scenario="b", seed=15)
        report = run_monte_carlo(
            generator, design, [instantaneous_effect(1, "", SCOPE2)], replications=3, seed=4
        )
        rows = emit_bias_distribution(report).strip().splitlines()[1:]
        parsed = [float(line.split(",")[-1]) for line in rows]
        assert parsed == [float(v) for v in report.bias[:, 0]]


class TestPrecisionOrdering:
    def test_variability_shrinks_with_more_restrictions(self):
        # common assignment streams across scenarios isolate the effect of
        # the added restrictions on the period-1 contrast
        design = CrossoverDesign(2, {z: 25 for z in ("AA", "AB", "BA", "BB")})
        spec = instantaneous_effect(1, "", SCOPE2)
        spreads = {}
        for scenario in ("a", "b", "c"):
            generator = ScenarioGenerator(scenario=scenario, seed=16)
            report = run_monte_carlo(
                generator, design, [spec], replications=300, seed=21, scenario=scenario
            )
            spreads[scenario] = report.empirical_variance[0]
        mc_se = {
            s: spreads[s] * np.sqrt(2.0 / (300 - 1)) for s in spreads
        }
        assert spreads["b"] <= spreads["a"] + 2 * (mc_se["a"] + mc_se["b"])
        assert spreads["c"] <= spreads["b"] + 2 * (mc_se["b"] + mc_se["c"])


class TestChunkBudget:
    """A chunk holds as many replications as MC_CHUNK_BYTES allows."""

    def test_large_class_count_gets_a_smaller_chunk(self):
        small = CrossoverDesign(2, {z: 100 for z in ("AA", "AB", "BA", "BB")})
        large = CrossoverDesign(6, {z: 3 for z in full_sequence_set(6)})
        spec = instantaneous_effect(1, "", large.scope)
        fit = simulator.StackedFit(large, assemble("a", 6, large.scope), spec)
        assert fit.classes == 126
        chunk = simulator.chunk_size(large, fit.classes)
        assert 1 <= chunk < simulator.chunk_size(small, 4)
        per_replication = 8 * (large.n_units * 6 + 64 * 36 + 126**2)
        assert chunk * per_replication <= simulator.MC_CHUNK_BYTES < (chunk + 1) * per_replication

    def test_chunk_is_at_least_one_replication(self, monkeypatch):
        monkeypatch.setattr(simulator, "MC_CHUNK_BYTES", 8)
        assert simulator.chunk_size(CrossoverDesign(2, {"AB": 3, "BA": 3}), 4) == 1

    @pytest.mark.parametrize(
        "kind,counts,scenario",
        [
            ("constant_effect", {z: 100 for z in ("AA", "AB", "BA", "BB")}, "a"),
            ("gaussian_model", {z: 100 for z in ("AA", "AB", "BA", "BB")}, "b"),
            ("constant_effect", {z: 100 for z in ("AA", "AB", "BA", "BB")}, "c"),
            ("gaussian_model", {"AB": 200, "BA": 200}, "b"),
            ("constant_effect", {"AB": 200, "BA": 200}, "c"),
        ],
    )
    def test_coverage_studies_are_bitwise_those_of_a_chunk_of_64(self, monkeypatch, kind, counts, scenario):
        design = CrossoverDesign(2, counts)
        generator = ScenarioGenerator(kind=kind, scenario=scenario, seed=814)
        specs = standard_two_period_specs(SCOPE2)
        report = run_monte_carlo(generator, design, specs, replications=300, seed=515)
        monkeypatch.setattr(simulator, "chunk_size", lambda design, classes: 64)
        fixed = run_monte_carlo(generator, design, specs, replications=300, seed=515)
        assert np.array_equal(report.bias, fixed.bias)
        assert np.array_equal(report.estimated_variances, fixed.estimated_variances)
        assert np.array_equal(report.covered, fixed.covered)


class TestCarryoverOrderReport:
    def test_scenario_a_reports_no_carryover_order(self):
        design = CrossoverDesign(2, {z: 5 for z in ("AA", "AB", "BA", "BB")})
        specs = standard_two_period_specs(SCOPE2)
        report = run_monte_carlo(ScenarioGenerator(scenario="a", seed=3), design, specs, replications=3)
        assert report.carryover_order is None and report.to_dict()["carryover_order"] is None
        ordered = run_monte_carlo(ScenarioGenerator(scenario="b", seed=3), design, specs, replications=3)
        assert ordered.carryover_order == 1
