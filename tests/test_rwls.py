import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from crossover import (
    ConditioningError,
    CrossoverDesign,
    DegenerateCovarianceError,
    MissingSequenceError,
    NotIdentifiableError,
    ObservedDataset,
    WeightModel,
    all_instantaneous_effects,
    as_sequence,
    assemble,
    carryover_effect,
    ehw_covariance,
    enumerate_assignments,
    estimate,
    feasible_rwls,
    full_sequence_set,
    implied_estimator_weights,
    instantaneous_effect,
    marginal_effect,
    oracle_variance,
    point_estimate,
    pooled_covariance_entries,
    random_consistent_table,
    realize_dataset,
    sample_assignment,
    sample_covariances,
    sequence_means,
    solve_restricted_wls,
    stack,
    true_value,
)
from crossover.rwls import _chi2_sf
from conftest import dense_sandwich, make_dataset, nullspace_restricted_wls, template_labels


def four_seq_design(counts=(3, 4, 5, 3)):
    return CrossoverDesign(2, dict(zip(("AA", "AB", "BA", "BB"), counts)))


def diagonal_weights(design, values=(1.0, 1.0)):
    return WeightModel({z: np.diag(values) for z in design.observed}, "user")


class TestObservedDataset:
    def test_codes_and_sequences_build_the_same_dataset(self, rng):
        design = four_seq_design()
        codes = rng.permutation(np.repeat(np.arange(4), (3, 4, 5, 3)))
        sequences = tuple(design.observed[c] for c in codes)
        outcomes = rng.normal(size=(design.n_units, 2))
        from_codes = ObservedDataset(design, codes, outcomes)
        from_words = ObservedDataset(design, tuple(str(z) for z in sequences), outcomes)
        assert from_codes.assignments == sequences == from_words.assignments
        assert np.array_equal(from_codes.codes, codes)
        assert np.array_equal(from_words.codes, codes)

    def test_group_indices_list_each_sequence_in_unit_order(self, rng):
        design = four_seq_design()
        codes = rng.permutation(np.repeat(np.arange(4), (3, 4, 5, 3)))
        dataset = ObservedDataset(design, codes, rng.normal(size=(design.n_units, 2)))
        groups = dataset.group_indices()
        assert list(groups) == list(design.observed)
        for i, z in enumerate(design.observed):
            assert np.array_equal(groups[z], np.flatnonzero(codes == i))

    @pytest.mark.parametrize("bad", [4, -1])
    def test_out_of_range_code_rejected(self, rng, bad):
        design = four_seq_design()
        codes = np.repeat(np.arange(4), (3, 4, 5, 3))
        codes[0] = bad
        with pytest.raises(ValueError, match="codes"):
            ObservedDataset(design, codes, rng.normal(size=(design.n_units, 2)))

    def test_wrong_code_counts_rejected(self, rng):
        design = four_seq_design()
        codes = np.repeat(np.arange(4), (4, 3, 5, 3))
        with pytest.raises(ValueError, match="counts"):
            ObservedDataset(design, codes, rng.normal(size=(design.n_units, 2)))

    def test_non_finite_outcomes_rejected(self, rng):
        design = four_seq_design()
        codes = np.repeat(np.arange(4), (3, 4, 5, 3))
        outcomes = rng.normal(size=(design.n_units, 2))
        outcomes[5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ObservedDataset(design, codes, outcomes)

    def test_wrong_shapes_rejected(self, rng):
        design = four_seq_design()
        codes = np.repeat(np.arange(4), (3, 4, 5, 3))
        with pytest.raises(ValueError):
            ObservedDataset(design, codes[None, :], rng.normal(size=(design.n_units, 2)))
        with pytest.raises(ValueError):
            ObservedDataset(design, codes, rng.normal(size=(design.n_units, 3)))

    def test_unimplemented_sequence_rejected(self, rng):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        with pytest.raises(ValueError, match="not implemented"):
            ObservedDataset(design, ("AB", "AB", "BA", "AA"), rng.normal(size=(4, 2)))


class TestSequenceMeans:
    def test_single_unit_groups_return_their_vectors(self, rng):
        design = CrossoverDesign(2, {"AB": 1, "BA": 1})
        dataset = make_dataset(design, rng)
        means = sequence_means(dataset)
        assert np.array_equal(means[as_sequence("AB")], dataset.outcomes[0])
        assert np.array_equal(means[as_sequence("BA")], dataset.outcomes[1])

    def test_constant_outcomes(self):
        design = CrossoverDesign(2, {"AB": 3})
        dataset = ObservedDataset(design, template_labels(design), np.full((3, 2), 2.5))
        assert np.allclose(sequence_means(dataset)[as_sequence("AB")], 2.5)

    def test_matches_streaming_mean(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        means = sequence_means(dataset)
        for z, idx in dataset.group_indices().items():
            streamed = np.zeros(2)
            for count, i in enumerate(idx, start=1):
                streamed += (dataset.outcomes[i] - streamed) / count
            assert np.allclose(means[z], streamed, atol=1e-12)


class TestSampleCovariances:
    def test_hand_case(self):
        design = CrossoverDesign(2, {"AB": 2})
        dataset = ObservedDataset(
            design, template_labels(design), np.array([[0.0, 0.0], [2.0, 2.0]])
        )
        cov = sample_covariances(dataset).matrix("AB")
        assert np.allclose(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_constant_group_repaired_to_small_identity(self):
        design = CrossoverDesign(2, {"AB": 3})
        dataset = ObservedDataset(design, template_labels(design), np.ones((3, 2)))
        model = sample_covariances(dataset)
        assert model.repaired == (as_sequence("AB"),)
        assert np.allclose(model.matrix("AB"), 1e-8 * np.eye(2))

    def test_single_unit_group_rejected(self, rng):
        design = CrossoverDesign(2, {"AB": 1, "BA": 3})
        with pytest.raises(DegenerateCovarianceError):
            sample_covariances(make_dataset(design, rng))

    def test_unbiased_over_enumeration(self):
        # averaging the sample covariance over every assignment recovers the
        # finite-population covariance exactly
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        table = random_consistent_table(2, "a", 1, 4, seed=9)
        ab = as_sequence("AB")
        total = np.zeros((2, 2))
        count = 0
        for assignment in enumerate_assignments(design):
            dataset = realize_dataset(table, assignment)
            total += sample_covariances(dataset).matrix(ab)
            count += 1
        assert np.allclose(total / count, table.covariance(ab), atol=1e-12)


class TestPooledCovarianceEntries:
    def test_scenario_a_pools_period1_by_arm(self, rng):
        design = four_seq_design((8, 9, 7, 8))
        dataset = make_dataset(design, rng)
        model = pooled_covariance_entries(dataset, "a")
        assert model.repaired == ()
        groups = dataset.group_indices()
        for arm in "AB":
            members = [as_sequence(arm + "A"), as_sequence(arm + "B")]
            total = 0.0
            dof = 0
            for z in members:
                y = dataset.outcomes[groups[z], 0]
                total += ((y - y.mean()) ** 2).sum()
                dof += y.size - 1
            for z in members:
                assert model.matrix(z)[0, 0] == pytest.approx(total / dof, abs=1e-12)

    def test_singleton_classes_match_sample(self, rng):
        design = CrossoverDesign(2, {"AB": 4, "BA": 5})
        dataset = make_dataset(design, rng)
        pooled = pooled_covariance_entries(dataset, "c", 1)
        sampled = sample_covariances(dataset)
        for z in design.observed:
            assert np.allclose(pooled.matrix(z), sampled.matrix(z), atol=1e-12)

    def test_pooling_identical_groups_is_a_no_op(self):
        design = CrossoverDesign(2, {"AA": 3, "AB": 3})
        y = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        dataset = ObservedDataset(
            design, template_labels(design), np.vstack([y, y])
        )
        pooled = pooled_covariance_entries(dataset, "a")
        sampled = sample_covariances(dataset)
        for z in design.observed:
            assert pooled.matrix(z)[0, 0] == pytest.approx(sampled.matrix(z)[0, 0])

    def test_enables_single_unit_groups_when_classes_merge(self, rng):
        # at three periods every covariance entry shares its class with a
        # second sequence, so one single-unit group is rescued
        counts = {z: 2 for z in full_sequence_set(3)}
        counts[as_sequence("AAA")] = 1
        design = CrossoverDesign(3, counts)
        dataset = make_dataset(design, rng)
        with pytest.raises(DegenerateCovarianceError):
            sample_covariances(dataset)
        model = pooled_covariance_entries(dataset, "b", 1)
        assert model.matrix("AAA").shape == (3, 3)

    def test_unpoolable_entries_are_rejected(self, rng):
        # for two periods no scenario equates the cross-period entry across
        # sequences, so a single-unit group cannot be rescued
        design = CrossoverDesign(2, {"AA": 1, "AB": 3})
        dataset = make_dataset(design, rng)
        with pytest.raises(DegenerateCovarianceError):
            pooled_covariance_entries(dataset, "b", 1)


class TestSolveRestrictedWls:
    def test_zero_row_restriction_returns_group_means(self, rng):
        from crossover.constraints import RestrictionMatrix, CoefficientLayout

        design = four_seq_design()
        dataset = make_dataset(design, rng)
        layout = CoefficientLayout(2, design.scope)
        empty = RestrictionMatrix(layout, np.zeros((0, layout.size)))
        weights = WeightModel(
            {z: np.array([[2.0, 0.7], [0.7, 1.5]]) for z in design.observed}, "user"
        )
        means = sequence_means(dataset)
        fit = solve_restricted_wls(design, means, weights, empty)
        for z in design.observed:
            assert np.allclose(fit.gamma[layout.block(z)], means[z], atol=1e-10)

    def test_rank_failure_raises_with_diagnostics(self, rng):
        design = CrossoverDesign(2, {"AB": 3, "BA": 3})
        dataset = make_dataset(design, rng)
        with pytest.raises(NotIdentifiableError) as info:
            feasible_rwls(dataset, "a")
        assert info.value.rank == 6
        assert info.value.dimension == 8

    def test_period1_pooling_is_count_proportional(self, rng):
        design = four_seq_design((2, 3, 4, 1))
        restriction = assemble("a", 2, design.scope)
        means = {z: rng.normal(size=2) for z in design.observed}
        fit = solve_restricted_wls(design, means, diagonal_weights(design), restriction)
        spec = instantaneous_effect(1, "", design.scope)
        implied = implied_estimator_weights(fit, spec)
        assert np.allclose(implied[as_sequence("AA")], [[2 / 5, 0]], atol=1e-10)
        assert np.allclose(implied[as_sequence("AB")], [[3 / 5, 0]], atol=1e-10)
        assert np.allclose(implied[as_sequence("BA")], [[-4 / 5, 0]], atol=1e-10)
        assert np.allclose(implied[as_sequence("BB")], [[-1 / 5, 0]], atol=1e-10)

    @pytest.mark.parametrize("scenario,order", [("a", None), ("b", 1), ("c", 1)])
    def test_matches_nullspace_oracle(self, rng, scenario, order):
        design = four_seq_design()
        restriction = assemble(scenario, 2, design.scope, order)
        for _ in range(5):
            dataset = make_dataset(design, rng)
            mats = {}
            for z in design.observed:
                a = rng.normal(size=(2, 2))
                mats[z] = a @ a.T + 0.5 * np.eye(2)
            weights = WeightModel(mats, "user")
            fit = solve_restricted_wls(design, sequence_means(dataset), weights, restriction)
            expected = nullspace_restricted_wls(dataset, weights, restriction)
            assert np.allclose(fit.gamma, expected, atol=1e-9)

    def test_restriction_satisfied(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "c", 1)
        assert fit.restriction_residual <= 1e-9 * (1 + np.abs(fit.gamma).max())

    def test_weight_model_without_an_implemented_sequence_rejected(self, rng):
        design = four_seq_design()
        weights = WeightModel({z: np.eye(2) for z in design.observed[:-1]}, "user")
        means = {z: rng.normal(size=2) for z in design.observed}
        with pytest.raises(MissingSequenceError, match=str(design.observed[-1])):
            solve_restricted_wls(design, means, weights, assemble("b", 2, design.scope, 1))

    def test_wrongly_shaped_weight_rejected(self, rng):
        design = four_seq_design()
        weights = WeightModel({z: np.eye(3) for z in design.observed}, "user")
        means = {z: rng.normal(size=2) for z in design.observed}
        with pytest.raises(ValueError, match="shape"):
            solve_restricted_wls(design, means, weights, assemble("b", 2, design.scope, 1))

    def test_indefinite_weights_raise_conditioning_error(self, rng):
        design = CrossoverDesign(2, {"AB": 4, "BA": 5})
        weights = WeightModel({z: np.array([[1.0, 2.0], [2.0, 1.0]]) for z in design.observed})
        means = {z: rng.normal(size=2) for z in design.observed}
        with pytest.raises(ConditioningError):
            solve_restricted_wls(design, means, weights, assemble("b", 2, design.scope, 1))

    @pytest.mark.parametrize(
        "counts,scenario,order",
        [
            ({"AA": 3, "AB": 4, "BA": 5, "BB": 3}, "a", None),
            ({"AB": 4, "BA": 5}, "b", 1),
            ({"AB": 4, "BA": 5}, "c", 1),
        ],
    )
    @pytest.mark.parametrize("power", [4, 8])
    def test_scaling_counts_scales_only_u11(self, rng, counts, scenario, order, power):
        design = CrossoverDesign(2, counts)
        scaled = CrossoverDesign(2, {z: n * 10**power for z, n in design.counts.items()})
        restriction = assemble(scenario, 2, design.scope, order)
        means = {z: rng.normal(size=2) for z in design.observed}
        mats = {}
        for z in design.observed:
            a = rng.normal(size=(2, 2))
            mats[z] = a @ a.T + 0.5 * np.eye(2)
        weights = WeightModel(mats, "user")
        fit = solve_restricted_wls(design, means, weights, restriction)
        big = solve_restricted_wls(scaled, means, weights, restriction)
        assert np.allclose(big.gamma, fit.gamma, rtol=1e-9, atol=1e-12)
        assert np.allclose(big.u11 * 10**power, fit.u11, rtol=1e-9, atol=1e-12)


class TestFeasibleRwls:
    def test_constant_outcomes_give_zero_contrasts(self):
        design = four_seq_design()
        dataset = ObservedDataset(
            design, template_labels(design), np.full((design.n_units, 2), 4.2)
        )
        fit = feasible_rwls(dataset, "b", 1)
        spec = stack(
            [instantaneous_effect(1, "", design.scope), instantaneous_effect(2, "A", design.scope)]
        )
        assert np.allclose(point_estimate(fit, spec), 0.0, atol=1e-9)

    def test_user_weights_match_two_step_pipeline(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        model = sample_covariances(dataset)
        via_string = feasible_rwls(dataset, "b", 1, "sample")
        via_model = feasible_rwls(dataset, "b", 1, model)
        assert np.allclose(via_string.gamma, via_model.gamma, atol=1e-12)

    def test_consistency_at_large_n(self):
        # the fitted coefficients approach the table means
        design = CrossoverDesign(2, {"AA": 2500, "AB": 2500, "BA": 2500, "BB": 2500})
        table = random_consistent_table(2, "b", 1, design.n_units, seed=31)
        dataset = realize_dataset(table, sample_assignment(design, 77))
        fit = feasible_rwls(dataset, "b", 1)
        layout = fit.layout
        for z in design.scope:
            gap = np.abs(fit.gamma[layout.block(z)] - table.mean_vector(z)).max()
            assert gap < 0.05

    @pytest.mark.parametrize("scenario,order", [("a", None), ("b", 1), ("c", 1), ("b", 2), ("c", 2)])
    def test_full_scope_matches_dense_nullspace_solve(self, rng, scenario, order):
        design = CrossoverDesign(4, {z: 8 for z in full_sequence_set(4)})
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, scenario, order)
        expected = nullspace_restricted_wls(dataset, fit.weight_model, fit.restriction)
        assert np.abs(fit.gamma - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_each_weight_matrix_is_inverted_once(self, rng, monkeypatch):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverted.append(m) or inv(m))
        fit = feasible_rwls(dataset, "b", 1)
        spec = instantaneous_effect(2, "A", design.scope)
        estimate(fit, spec)
        implied_estimator_weights(fit, spec)
        assert len(inverted) == len(design.observed)

    def test_fit_and_estimate_allocate_less_than_one_p_by_p_array(self, rng):
        scope = full_sequence_set(7)
        design = CrossoverDesign(7, {z: 3 for z in scope})
        dataset = make_dataset(design, rng)
        restriction = assemble("b", 7, scope, 1)
        spec = stack(all_instantaneous_effects(7, scope))
        tracemalloc.start()
        try:
            fit = feasible_rwls(dataset, "b", 1, restriction=restriction)
            estimate(fit, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < restriction.layout.size**2 * 8

    def test_full_scope_fit_at_nine_periods_peaks_below_one_dense_restriction(self, rng):
        # C is 4590 x 4608 here (169 MB dense); the fit assembles it inside
        # the measured region and must never form it densely
        scope = full_sequence_set(9)
        design = CrossoverDesign(9, {z: 3 for z in scope})
        dataset = make_dataset(design, rng)
        spec = stack([instantaneous_effect(1, "", scope), instantaneous_effect(9, "A" * 8, scope)])
        tracemalloc.start()
        try:
            fit = feasible_rwls(dataset, "b", 1)
            estimate(fit, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (fit.restriction.n_rows, fit.layout.size) == (4590, 4608)
        assert peak < fit.restriction.n_rows * fit.layout.size * 8

    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    def test_condition_number_is_that_of_the_reduced_matrix(self, scenario):
        design = CrossoverDesign(5, {z: 12 for z in full_sequence_set(5)})
        table = random_consistent_table(5, scenario, 1, design.n_units, seed=11)
        dataset = realize_dataset(table, sample_assignment(design, 3))
        order = None if scenario == "a" else 1
        fit = feasible_rwls(dataset, scenario, order)
        # A = X'W^-1 X is block diagonal with blocks N_z Omega_z^-1
        gram = np.zeros((fit.layout.size, fit.layout.size))
        for z, n in design.counts.items():
            sl = fit.layout.block(z)
            gram[sl, sl] = n * np.linalg.inv(fit.weight_model.matrix(z))
        basis = fit.restriction.basis
        expected = np.linalg.cond(basis.T @ gram @ basis)
        assert fit.condition_number == pytest.approx(expected, rel=1e-6)
        assert fit.condition_number < 1e4
        assert fit.warnings == ()


    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    def test_matches_a_triangular_solve_on_the_cholesky_factor(self, scenario):
        design = CrossoverDesign(5, {z: 12 for z in full_sequence_set(5)})
        table = random_consistent_table(5, scenario, 1, design.n_units, seed=11)
        dataset = realize_dataset(table, sample_assignment(design, 3))
        fit = feasible_rwls(dataset, scenario, None if scenario == "a" else 1)
        layout, basis = fit.layout, fit.restriction.basis
        reduced = np.zeros((basis.shape[1], basis.shape[1]))
        xty = np.zeros(layout.size)
        for z, n in design.counts.items():
            sl, inverse = layout.block(z), fit.weight_model.inverses[z]
            reduced += n * basis[sl].T @ inverse @ basis[sl]
            xty[sl] = n * inverse @ fit.means[z]
        half = scipy.linalg.solve_triangular(np.linalg.cholesky(reduced), basis.T, lower=True)
        for got, want in ((fit.gamma, half.T @ (half @ xty)), (fit.u11, half.T @ half)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestEhwCovariance:
    def test_zero_residuals_zero_matrix(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        outcomes = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 1.0], [3.0, 1.0]])
        dataset = ObservedDataset(design, template_labels(design), outcomes)
        fit = feasible_rwls(dataset, "b", 1, diagonal_weights(design))
        assert np.allclose(fit.ehw, 0.0, atol=1e-18)

    def test_matches_dense_assembly(self, rng):
        design = four_seq_design((2, 2, 2, 2))
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "b", 1)
        dense = dense_sandwich(dataset, fit)
        assert np.allclose(fit.ehw, dense, atol=1e-10)

    @pytest.mark.parametrize("scenario,order", [("a", None), ("b", 1), ("b", 2), ("c", 1), ("c", 2)])
    def test_matches_dense_assembly_on_the_full_scope(self, rng, scenario, order):
        scope = full_sequence_set(4)
        design = CrossoverDesign(4, {z: 6 for z in scope})
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, scenario, order)
        assert fit.weight_model.repaired == ()
        dense = dense_sandwich(dataset, fit)
        assert np.abs(fit.ehw - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())
        spec = stack(
            [s for t in range(1, 5) for s in all_instantaneous_effects(t, scope)]
            + [carryover_effect(2, 1, "", "A", scope)]
        )
        b = np.zeros((spec.dimension, fit.layout.size))
        for z, w in spec.weights.items():
            b[:, fit.layout.block(z)] = w
        expected = b @ dense @ b.T
        covariance = estimate(fit, spec).covariance
        assert np.abs(covariance - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())

    def test_symmetric_psd(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "c", 1)
        ehw = fit.ehw
        assert np.allclose(ehw, ehw.T, atol=1e-12)
        assert np.linalg.eigvalsh(ehw).min() >= -1e-12

    def test_public_wrapper_recomputes(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "b", 1)
        again = ehw_covariance(fit, dataset)
        assert np.allclose(again, fit.ehw, atol=1e-15)

    def test_small_sample_scale_inflates_by_dof_ratio(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        plain = feasible_rwls(dataset, "b", 1)
        scaled = feasible_rwls(dataset, "b", 1, small_sample_scale=True)
        n = dataset.n_units
        free = plain.layout.size - plain.restriction.n_rows
        assert np.allclose(scaled.ehw, plain.ehw * n / (n - free), atol=1e-12)


class TestEstimate:
    def test_zero_spec_rows_are_exact_zeroes(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "b", 1)
        spec = carryover_effect(2, 1, "", "A", design.scope)
        result = estimate(fit, spec)
        assert result.point[0] == 0.0
        assert result.std_errors[0] == 0.0
        assert result.ci_lower[0] == 0.0 == result.ci_upper[0]

    def test_confidence_interval_uses_normal_quantile(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "a", None)
        spec = instantaneous_effect(1, "", design.scope)
        result = estimate(fit, spec, level=0.95)
        half = result.ci_upper[0] - result.point[0]
        assert half == pytest.approx(1.959963984540054 * result.std_errors[0], rel=1e-12)

    def test_wald_tail_matches_scipy(self):
        points = np.concatenate([[0.0], np.logspace(-6, 3, 181)])
        for dof in range(1, 65):
            assert _chi2_sf(dof, 0.0) == 1.0
            got = np.array([_chi2_sf(dof, float(x)) for x in points])
            want = scipy.special.chdtrc(dof, points)
            kept = want > 1e-300
            assert np.all(np.abs(got - want)[kept] <= 1e-12 * want[kept])

    def test_spec_outside_scope_rejected(self, rng):
        design = CrossoverDesign(2, {"AB": 3, "BA": 3}, scope=("AB", "BA"))
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "b", 1)
        foreign = instantaneous_effect(2, "A", full_sequence_set(2))
        with pytest.raises(ValueError):
            estimate(fit, foreign)


class TestDesignBasedProperties:
    def test_exact_unbiasedness_with_fixed_weights(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        table = random_consistent_table(2, "b", 1, 4, seed=13)
        weights = WeightModel({z: table.covariance(z) for z in design.observed}, "user")
        restriction = assemble("b", 2, design.scope, 1)
        spec = stack(
            [instantaneous_effect(1, "", design.scope), instantaneous_effect(2, "A", design.scope)]
        )
        points = []
        for assignment in enumerate_assignments(design):
            dataset = realize_dataset(table, assignment)
            fit = solve_restricted_wls(design, sequence_means(dataset), weights, restriction)
            points.append(point_estimate(fit, spec))
        mean = np.mean(points, axis=0)
        assert np.abs(mean - true_value(spec, table)).max() < 1e-9

    def test_blue_dominates_plug_in(self):
        # with true weights, the engine's period-2 contrast beats the plain
        # group-mean difference whenever the periods are correlated
        design = CrossoverDesign(2, {"AA": 2, "AB": 2, "BA": 2, "BB": 2})
        table = random_consistent_table(2, "a", 1, 8, seed=23)
        weights = WeightModel({z: table.covariance(z) for z in design.observed}, "user")
        restriction = assemble("a", 2, design.scope)
        spec = instantaneous_effect(2, "A", design.scope)
        engine_points = []
        plug_in_points = []
        for assignment in enumerate_assignments(design):
            dataset = realize_dataset(table, assignment)
            means = sequence_means(dataset)
            fit = solve_restricted_wls(design, means, weights, restriction)
            engine_points.append(point_estimate(fit, spec)[0])
            plug_in_points.append(means[as_sequence("AA")][1] - means[as_sequence("AB")][1])
        assert np.var(engine_points) <= np.var(plug_in_points) + 1e-9

    def test_variance_identity_with_fixed_weights(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        table = random_consistent_table(2, "c", 1, 4, seed=37)
        weights = WeightModel({z: table.covariance(z) for z in design.observed}, "user")
        restriction = assemble("c", 2, design.scope, 1)
        spec = instantaneous_effect(1, "", design.scope)
        points = []
        base = None
        for assignment in enumerate_assignments(design):
            dataset = realize_dataset(table, assignment)
            fit = solve_restricted_wls(design, sequence_means(dataset), weights, restriction)
            base = base or fit
            points.append(point_estimate(fit, spec)[0])
        empirical = np.var(points)
        formula = oracle_variance(base, spec, table)[0, 0]
        assert empirical == pytest.approx(formula, abs=1e-9)

    def test_matched_pair_equivalence_through_engine(self, rng):
        from crossover.twoperiod import paired_difference_estimate

        design = CrossoverDesign(2, {"AB": 5, "BA": 5})
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "b", 1)
        spec = marginal_effect(
            [instantaneous_effect(1, "", design.scope), instantaneous_effect(2, "A", design.scope)],
            labels=("average_effect",),
        )
        engine = point_estimate(fit, spec)[0]
        assert engine == pytest.approx(paired_difference_estimate(dataset), abs=1e-10)
