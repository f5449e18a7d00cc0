import copy
import pickle
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from crossover import (
    ConditioningError,
    CrossoverDesign,
    DegenerateCovarianceError,
    EstimandSpec,
    MissingSequenceError,
    NotIdentifiableError,
    ObservedDataset,
    WeightModel,
    all_instantaneous_effects,
    as_sequence,
    assemble,
    carryover_effect,
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
from crossover import rwls, twoperiod
from crossover.constraints import ClassMap, CoefficientLayout, restriction_from_rows
from crossover.rwls import _chi2_sf, repair_positive_definite
from conftest import (
    dense_basis,
    dense_ehw,
    dense_sandwich,
    dense_u11,
    make_dataset,
    nullspace_restricted_wls,
    per_sequence_oracle_variance,
    row_major_moments,
    score_meat,
    template_labels,
)


def four_seq_design(counts=(3, 4, 5, 3)):
    return CrossoverDesign(2, dict(zip(("AA", "AB", "BA", "BB"), counts)))


# eight of the sixteen T=4 sequences, hitting every trailing pair at
# periods 2 to 4
HALF_T4_ALL_WINDOWS = ("AAAA", "AABB", "ABAB", "ABBA", "BAAB", "BABA", "BBAA", "BBBB")


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


class TestMoments:
    def test_match_each_sequence_group_and_are_read_only(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        moments = dataset.moments
        assert dataset.moments is moments
        for i, (z, idx) in enumerate(dataset.group_indices().items()):
            centered = dataset.outcomes[idx] - dataset.outcomes[idx].mean(axis=0)
            assert moments.counts[i] == idx.size
            assert np.allclose(moments.means[i], dataset.outcomes[idx].mean(axis=0), atol=1e-14)
            assert np.allclose(moments.cross[i], centered.T @ centered, atol=1e-12)
        for array in moments:
            assert not array.flags.writeable

    @pytest.mark.parametrize(
        "shape,counts",
        [
            pytest.param((37, 3), (3, 17, 9, 8), id="unbalanced"),
            pytest.param((12, 2), (1, 6, 5), id="one-unit-group"),
            pytest.param((40, 4), (40,), id="single-sequence"),
            pytest.param((30, 1), (12, 18), id="T1"),
            pytest.param((6, 150, 2), (100, 1, 49), id="stack"),
        ],
    )
    def test_contiguous_reduction_matches_the_row_major_reference(self, rng, shape, counts):
        counts = np.array(counts)
        # per-sequence locations, as outcomes under different sequences have
        grouped = rng.normal(size=shape) + np.repeat(rng.normal(0.0, 3.0, size=counts.size), counts)[:, None]
        for layout in (grouped, np.ascontiguousarray(grouped.swapaxes(-1, -2)).swapaxes(-1, -2)):
            moments = rwls.grouped_moments(layout, counts)
            for got, expected in zip(moments[1:], row_major_moments(grouped, counts)):
                assert got.shape == expected.shape
                assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
        # the sums run in one order whatever the layout and the leading axes
        assert all(map(np.array_equal, moments[1:], rwls.grouped_moments(grouped, counts)[1:]))
        if grouped.ndim == 3:
            first = rwls.grouped_moments(grouped[0], counts)
            assert np.array_equal(first.means, moments.means[0]) and np.array_equal(first.cross, moments.cross[0])

    @pytest.mark.parametrize("weights", ["sample", "pooled"])
    def test_one_moments_pass_per_dataset_in_a_fit(self, rng, monkeypatch, weights):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        passes = []
        compute = rwls._sequence_moments
        monkeypatch.setattr(rwls, "_sequence_moments", lambda d: passes.append(d) or compute(d))
        feasible_rwls(dataset, "b", 1, weights)
        twoperiod.TwoPeriodSummary.from_dataset(dataset)
        assert len(passes) == 1 and passes[0] is dataset


class TestStacks:
    """The weight layer and StackedFit on a leading replication axis give,
    item by item, bitwise the single-dataset results."""

    def stack_of_datasets(self, design, rng, replications=5):
        grouped = rng.normal(size=(replications, design.n_units, design.horizon))
        labels = template_labels(design)
        return grouped, [ObservedDataset(design, labels, outcomes) for outcomes in grouped]

    @pytest.mark.parametrize("horizon,scenario,order", [(2, "a", None), (3, "b", 2), (4, "c", 1)])
    def test_moments_and_weights_match_item_by_item(self, rng, horizon, scenario, order):
        observed = full_sequence_set(horizon)[1::2]
        design = CrossoverDesign(horizon, {z: 3 + i for i, z in enumerate(observed)})
        grouped, datasets = self.stack_of_datasets(design, rng)
        moments = rwls.grouped_moments(grouped, np.array(list(design.counts.values())))
        ids = ClassMap(horizon, scenario, order).ids(observed)[1]
        pooled = rwls.pool_by_class(moments.counts, moments.cross, ids, observed)
        sample = rwls.sample_by_sequence(moments.counts, moments.cross, observed)
        for r, dataset in enumerate(datasets):
            assert np.array_equal(moments.means[r], dataset.moments.means)
            assert np.array_equal(moments.cross[r], dataset.moments.cross)
            assert np.array_equal(pooled[r], rwls.pool_by_class(*dataset.moments[::2], ids, observed))
            assert np.array_equal(sample[r], rwls.sample_by_sequence(*dataset.moments[::2], observed))

    @pytest.mark.parametrize(
        "implemented,scenario,order",
        [
            pytest.param(full_sequence_set(3), "a", None, id="a-None"),
            pytest.param(full_sequence_set(3), "b", 1, id="b-1"),
            pytest.param(full_sequence_set(3), "c", 2, id="c-2"),
            # half of the T=4 scope: under b every class must be hit (Q is
            # diagonal), under c the period-4 class B is not (Q_h < Q)
            pytest.param(HALF_T4_ALL_WINDOWS, "b", 2, id="half-T4-b-2"),
            pytest.param(full_sequence_set(4)[::2], "c", 1, id="half-T4-c-1"),
        ],
    )
    @pytest.mark.parametrize("weights", ["sample", "pooled", "user"])
    def test_stacked_fit_matches_feasible_rwls_and_estimate(self, rng, implemented, scenario, order, weights):
        horizon = len(implemented[0])
        design = CrossoverDesign(
            horizon, {z: 3 + i % 3 for i, z in enumerate(implemented)}, full_sequence_set(horizon)
        )
        restriction = assemble(scenario, horizon, design.scope, order)
        if weights == "user":
            weights = WeightModel({z: np.eye(horizon) + 0.2 for z in design.observed}, "user")
        spec = stack(all_instantaneous_effects(3, design.scope)[:2] + [carryover_effect(3, 2, "", "AB", design.scope)])
        grouped, datasets = self.stack_of_datasets(design, rng)
        point, variances = rwls.StackedFit(design, restriction, spec, weights, scenario, order)(grouped)
        for r, dataset in enumerate(datasets):
            result = estimate(feasible_rwls(dataset, scenario, order, weights, restriction), spec)
            assert np.array_equal(point[r], result.point)
            assert np.array_equal(variances[r], np.diag(result.covariance))

    def test_errors_no_data_can_change_keep_their_order(self, rng):
        # AB/BA fails the rank condition under scenario a; AB has one unit
        design = CrossoverDesign(2, {"AB": 1, "BA": 4})
        restriction = assemble("a", 2, design.scope)
        spec = instantaneous_effect(1, "", design.scope)
        # the stack checks identification, then the spec, then the weights
        with pytest.raises(NotIdentifiableError):
            rwls.StackedFit(design, restriction, spec, "bogus")
        identified = four_seq_design((1, 4, 4, 4))
        wrong_horizon = instantaneous_effect(1, "", full_sequence_set(3))
        with pytest.raises(ValueError, match="spec horizon"):
            rwls.StackedFit(identified, assemble("a", 2, identified.scope), wrong_horizon, "bogus")
        with pytest.raises(ValueError, match="weights must be"):
            rwls.StackedFit(identified, assemble("a", 2, identified.scope), spec, "bogus")
        # the single fit builds its weights from the data before it solves
        dataset = make_dataset(design, rng)
        with pytest.raises(ValueError, match="weights must be"):
            feasible_rwls(dataset, "a", weights="bogus")
        with pytest.raises(DegenerateCovarianceError, match="sequence AB has 1 unit"):
            feasible_rwls(dataset, "a")

    def test_failed_cholesky_raises_conditioning_error(self, rng):
        design = four_seq_design()
        negative = WeightModel({z: -np.eye(2) for z in design.observed}, "user")
        fit = rwls.StackedFit(design, assemble("b", 2, design.scope, 1), instantaneous_effect(1, "", design.scope), negative)
        with pytest.raises(ConditioningError, match="not positive definite"):
            fit(self.stack_of_datasets(design, rng)[0])


class TestRepairPositiveDefinite:
    @pytest.mark.parametrize("horizon", [2, 3, 6, 7])
    def test_stack_repair_and_inverse_match_matrix_by_matrix(self, rng, horizon):
        half = rng.normal(size=(8, horizon, horizon - 1))
        stack = np.concatenate([
            half @ np.swapaxes(half, 1, 2),  # rank deficient: repaired
            rng.normal(size=(4, horizon, horizon)),  # indefinite, not symmetric
            np.eye(horizon)[None] * [[[2.0]], [[0.0]], [[-1.0]]],
        ])
        repaired, mask = repair_positive_definite(stack)
        assert mask.shape == (len(stack),) and mask[:8].all()
        model = WeightModel(dict(zip(full_sequence_set(4), repaired)))
        for matrix, want, fixed, inverse in zip(stack, repaired, mask, model.inverses.values()):
            one, one_fixed = repair_positive_definite(matrix)
            assert isinstance(one_fixed, bool) and one_fixed == fixed
            assert np.array_equal(one, want)
            assert np.linalg.eigvalsh(want).min() > 0.0
            assert np.array_equal(inverse, np.linalg.inv(want))

    def test_weight_matrices_must_share_one_shape(self):
        with pytest.raises(ValueError, match="share one shape"):
            WeightModel({"AB": np.eye(2), "BA": np.eye(3)})


class TestWeightModel:
    @pytest.mark.parametrize("singular", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
    def test_singular_weight_is_rejected_naming_its_sequence(self, singular):
        matrices = {"BA": [[1.5, -0.2], [-0.2, 1.0]], "AB": singular, "BB": singular}
        with pytest.raises(ValueError) as info:
            WeightModel(matrices)
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert str(info.value) == "weight for AB is singular"

    def test_asymmetric_weight_is_rejected_naming_its_sequence(self, rng):
        # eigh reads one triangle of the M such weights give: the fit was
        # neither solve(M, rhs) nor the solve with M symmetrized
        design = four_seq_design((5, 5, 5, 5))
        dataset = make_dataset(design, rng)
        lopsided = {z: [[2.0, 0.9], [0.1, 1.0]] for z in design.observed}
        with pytest.raises(ValueError, match="weight for AA must be symmetric"):
            feasible_rwls(dataset, "b", 1, WeightModel(lopsided))

    def test_symmetry_is_judged_against_each_matrix_scale(self, rng):
        # the lopsided weights above, times 1e-9, once passed an absolute
        # 1e-8 floor and gave a different fit with no warning
        design = four_seq_design((5, 5, 5, 5))
        dataset = make_dataset(design, rng)
        lopsided = {z: 1e-9 * np.array([[2.0, 0.9], [0.1, 1.0]]) for z in design.observed}
        with pytest.raises(ValueError, match="weight for AA must be symmetric"):
            feasible_rwls(dataset, "b", 1, WeightModel(lopsided))
        near = 1e-9 * np.array([[1.0, 0.3], [0.3 + 1e-12, 2.0]])
        assert np.array_equal(WeightModel({"AB": np.eye(2), "BA": near}).matrix("BA"), near)
        for scale in (1e-12, 1.0, 1e12):
            with pytest.raises(ValueError, match="weight for BA must be symmetric"):
                WeightModel({"AB": np.eye(2), "BA": scale * np.array([[1.0, 0.3], [0.3 + 1e-4, 2.0]])})

    def test_an_asymmetry_small_against_the_matrix_scale_is_accepted(self):
        # np.isclose rejected this matrix entrywise; its asymmetry is 1e-9 of its scale
        weight = np.array([[1e6, 1.0], [1.001, 1.0]])
        assert np.array_equal(WeightModel({"AB": np.eye(2), "BA": weight}).matrix("BA"), weight)

    def test_symmetry_is_checked_up_to_allclose(self):
        near = np.array([[1.0, 0.3], [0.3 + 1e-12, 2.0]])
        model = WeightModel({"AB": np.eye(2), "BA": near})
        assert np.array_equal(model.matrix("BA"), near)
        with pytest.raises(ValueError, match="weight for BA must be symmetric"):
            WeightModel({"AB": np.eye(2), "BA": near + [[0.0, 0.0], [1e-3, 0.0]]})

    def test_repaired_names_are_sequences_in_model_order(self):
        model = WeightModel({"BA": np.eye(2), "AB": np.eye(2), "BB": np.eye(2)}, "user", ("BB", as_sequence("AB")))
        assert model.repaired == (as_sequence("AB"), as_sequence("BB"))
        assert model.mask.tolist() == [True, False, True]

    def test_keys_of_mixed_lengths_are_refused(self):
        # the ABA matrix has the shape of the others: only its key is wrong
        with pytest.raises(ValueError, match="^sequence ABA has length 3, expected 2$"):
            WeightModel({"AB": np.eye(2), "ABA": np.eye(2), "BA": np.eye(2)})

    def test_repaired_name_without_a_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="repaired sequence AAA has no weight matrix"):
            WeightModel({"AB": np.eye(2), "BA": np.eye(2)}, "user", ("AB", "AAA"))

    @pytest.mark.parametrize("choice", ["user", "sample", "pooled"])
    def test_matrices_and_inverses_are_read_only(self, rng, choice):
        design = four_seq_design()
        if choice == "user":
            model = diagonal_weights(design, (1.0, 2.0))
        else:
            model = feasible_rwls(make_dataset(design, rng), "b", 1, choice).weight_model
        z = design.observed[1]
        for view in (model.matrices, model.inverses):
            before = view[z].copy()
            with pytest.raises(ValueError, match="read-only"):
                view[z][0, 0] = 7.0
            with pytest.raises(TypeError):
                view[z] = np.eye(2)
            assert np.array_equal(view[z], before)
        for array in (model.stack, model.inverse_stack, model.mask):
            assert not array.flags.writeable

    @pytest.mark.parametrize("choice", ["user", "pooled"])
    def test_model_copies_through_pickle_with_its_views_read(self, rng, choice):
        design = four_seq_design()
        if choice == "user":
            model = diagonal_weights(design, (1.0, 2.0))
        else:
            model = feasible_rwls(make_dataset(design, rng), "a", None, choice).weight_model
        assert model.matrices and model.inverses  # the views are cached once read
        for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert copied.sequences == model.sequences and copied.provenance == model.provenance
            assert copied.repaired == model.repaired
            for name in ("stack", "inverse_stack", "mask"):
                assert np.array_equal(getattr(copied, name), getattr(model, name))
                assert not getattr(copied, name).flags.writeable

    @pytest.mark.parametrize(
        "observed,scenario,order",
        [(("AB", "BA"), "b", 1), (HALF_T4_ALL_WINDOWS, "b", 2)],
    )
    def test_model_over_more_sequences_fits_as_the_model_cut_down(self, rng, observed, scenario, order):
        horizon = len(observed[0])
        design = CrossoverDesign(horizon, {z: 4 + i for i, z in enumerate(observed)})
        dataset = make_dataset(design, rng)
        matrices = {}
        for z in full_sequence_set(horizon):
            a = rng.normal(size=(horizon, horizon))
            matrices[z] = a @ a.T + 0.5 * np.eye(horizon)
        wide = WeightModel(matrices)
        cut = WeightModel({z: matrices[z] for z in design.observed})
        assert len(wide.sequences) > len(cut.sequences) == len(observed)
        spec = instantaneous_effect(1, "", design.scope)
        fits = [feasible_rwls(dataset, scenario, order, weights) for weights in (wide, cut)]
        for name in ("gamma", "beta", "whitener", "reduced_meat", "condition_number"):
            assert np.array_equal(getattr(fits[0], name), getattr(fits[1], name)), name
        results = [estimate(fit, spec) for fit in fits]
        assert np.array_equal(results[0].point, results[1].point)
        assert np.array_equal(results[0].std_errors, results[1].std_errors)


def _pooled_by_definition(dataset, scenario, order):
    """Pooled entries straight from the definition, one entry at a time:
    the centered cross-products summed over the sequences sharing both
    class keys, divided by sum(N) - members; or the message naming the
    first entry (t <= t', sequences in order) without degrees of freedom."""
    horizon = dataset.design.horizon
    classes = ClassMap(horizon, scenario, order)
    observed = dataset.design.observed
    groups = dataset.group_indices()
    centered = {z: dataset.outcomes[idx] - dataset.outcomes[idx].mean(axis=0) for z, idx in groups.items()}
    pooled = {z: np.zeros((horizon, horizon)) for z in observed}
    for t1 in range(horizon):
        for t2 in range(t1, horizon):
            for z in observed:
                members = [
                    w for w in observed
                    if classes.key(t1 + 1, w) == classes.key(t1 + 1, z)
                    and classes.key(t2 + 1, w) == classes.key(t2 + 1, z)
                ]
                dof = sum(groups[w].size for w in members) - len(members)
                if dof < 1:
                    return f"entry ({t1 + 1},{t2 + 1}) pooled over {members} has no degrees of freedom"
                total = sum(float(centered[w][:, t1] @ centered[w][:, t2]) for w in members)
                pooled[z][t1, t2] = pooled[z][t2, t1] = total / dof
    return pooled


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_pooled_entries_match_the_definition(data):
    horizon = data.draw(st.integers(1, 5))
    full = full_sequence_set(horizon)
    observed = [full[i] for i in sorted(data.draw(st.sets(st.integers(0, len(full) - 1), min_size=1)))]
    scenario = data.draw(st.sampled_from(("a", "b", "c")))
    order = None if scenario == "a" else data.draw(st.integers(1, horizon))
    design = CrossoverDesign(horizon, {z: data.draw(st.integers(1, 4)) for z in observed})
    dataset = make_dataset(design, np.random.default_rng(data.draw(st.integers(0, 2**31 - 1))))
    want = _pooled_by_definition(dataset, scenario, order)
    if isinstance(want, str):
        with pytest.raises(DegenerateCovarianceError, match=re.escape(want)):
            pooled_covariance_entries(dataset, scenario, order)
        return
    model = pooled_covariance_entries(dataset, scenario, order)
    repaired = {z: repair_positive_definite(m) for z, m in want.items()}
    assert model.repaired == tuple(z for z in design.observed if repaired[z][1])
    for z, (matrix, _) in repaired.items():
        assert np.abs(model.matrix(z) - matrix).max() <= 1e-13 * np.abs(matrix).max()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_is_rejected_naming_its_sequence(self, rng, bad):
        design = CrossoverDesign(2, {"AB": 4, "BA": 5})
        dataset = make_dataset(design, rng)
        with pytest.raises(ValueError, match="weight for BA has a non-finite entry"):
            feasible_rwls(dataset, "b", 1, WeightModel({"AB": np.eye(2), "BA": [[1.0, bad], [bad, 1.0]]}))

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
        assert np.allclose(dense_u11(big) * 10**power, dense_u11(fit), rtol=1e-9, atol=1e-12)


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
        # one call inverts the (k, T, T) stack of all k weight matrices
        assert [m.shape for m in inverted] == [(len(design.observed), 2, 2)]

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
        basis = dense_basis(fit.restriction)
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
        layout, basis = fit.layout, dense_basis(fit.restriction)
        reduced = np.zeros((basis.shape[1], basis.shape[1]))
        xty = np.zeros(layout.size)
        for z, n in design.counts.items():
            sl, inverse = layout.block(z), fit.weight_model.inverses[z]
            reduced += n * basis[sl].T @ inverse @ basis[sl]
            xty[sl] = n * inverse @ fit.means[z]
        half = scipy.linalg.solve_triangular(np.linalg.cholesky(reduced), basis.T, lower=True)
        for got, want in ((fit.gamma, half.T @ (half @ xty)), (dense_u11(fit), half.T @ half)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestEhwCovariance:
    def test_zero_residuals_zero_matrix(self):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        outcomes = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 1.0], [3.0, 1.0]])
        dataset = ObservedDataset(design, template_labels(design), outcomes)
        fit = feasible_rwls(dataset, "b", 1, diagonal_weights(design))
        assert np.allclose(dense_ehw(fit), 0.0, atol=1e-18)

    def test_matches_dense_assembly(self, rng):
        design = four_seq_design((2, 2, 2, 2))
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "b", 1)
        dense = dense_sandwich(dataset, fit)
        assert np.allclose(dense_ehw(fit), dense, atol=1e-10)

    @pytest.mark.parametrize("scenario,order", [("a", None), ("b", 1), ("b", 2), ("c", 1), ("c", 2)])
    def test_matches_dense_assembly_on_the_full_scope(self, rng, scenario, order):
        scope = full_sequence_set(4)
        design = CrossoverDesign(4, {z: 6 for z in scope})
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, scenario, order)
        assert fit.weight_model.repaired == ()
        dense = dense_sandwich(dataset, fit)
        assert np.abs(dense_ehw(fit) - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())
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
        ehw = dense_ehw(fit)
        assert np.allclose(ehw, ehw.T, atol=1e-12)
        assert np.linalg.eigvalsh(ehw).min() >= -1e-12

    def test_small_sample_scale_inflates_by_dof_ratio(self, rng):
        design = four_seq_design()
        dataset = make_dataset(design, rng)
        plain = feasible_rwls(dataset, "b", 1)
        scaled = feasible_rwls(dataset, "b", 1, small_sample_scale=True)
        n = dataset.n_units
        free = plain.layout.size - plain.restriction.n_rows
        assert np.allclose(dense_ehw(scaled), dense_ehw(plain) * n / (n - free), atol=1e-12)


class TestEstimate:
    def test_a_fit_without_a_meat_is_refused(self, rng):
        design = four_seq_design()
        means = {z: rng.normal(size=2) for z in design.observed}
        fit = solve_restricted_wls(design, means, diagonal_weights(design), assemble("b", 2, design.scope, 1))
        assert fit.reduced_meat is None
        with pytest.raises(ValueError, match="^fit has no sandwich pieces; run feasible_rwls first$"):
            estimate(fit, instantaneous_effect(1, "", design.scope))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_spec_row_is_rejected_naming_its_sequence(self, rng, bad):
        design = four_seq_design()
        fit = feasible_rwls(make_dataset(design, rng), "b", 1)
        with pytest.raises(ValueError, match=re.escape("W(BA) has a non-finite entry")):
            estimate(fit, EstimandSpec(2, design.scope, {"AB": [[1.0, 0.0]], "BA": [[0.0, bad]]}, ("x",)))

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


def _implemented_scope_dataset(horizon, units, seed, scenario="a", order=None):
    """Eight random sequences of one horizon, each its own scope member,
    observed from a table consistent with the scenario."""
    rng = np.random.default_rng(seed)
    words = set()
    while len(words) < 8:
        words.add("".join(rng.choice(["A", "B"], horizon)))
    design = CrossoverDesign(horizon, {z: units for z in words}, scope=words)
    table = random_consistent_table(horizon, scenario, order or 1, design.n_units, scope=words, seed=seed)
    return realize_dataset(table, sample_assignment(design, seed))


def _dense_reduced_system(fit):
    """M = sum_z N_z Z_z' Omega_z^-1 Z_z and Q' sum_z E_z' W_z Ybar_z from
    the dense basis blocks Z_z."""
    basis, layout = dense_basis(fit.restriction), fit.layout
    reduced = np.zeros((basis.shape[1], basis.shape[1]))
    rhs = np.zeros(basis.shape[1])
    for z, n in fit.design.counts.items():
        block, inverse = basis[layout.block(z)], fit.weight_model.inverses[z]
        reduced += n * block.T @ inverse @ block
        rhs += n * block.T @ inverse @ fit.means[z]
    return reduced, rhs


class TestClassWidthFit:
    """M, the meat and BZ are formed at class width from the class ids and
    the moments record; the p x d basis Z is formed only by the dense
    references here."""

    CASES = [("a", None, "sample"), ("b", 1, "sample"), ("b", 2, "pooled"), ("c", 1, "sample"), ("c", 2, "pooled")]

    @pytest.mark.parametrize("scenario,order,weights", CASES)
    def test_moments_meat_matches_the_per_unit_score_meat(self, rng, scenario, order, weights):
        design = CrossoverDesign(4, {z: 12 for z in full_sequence_set(4)})
        table = random_consistent_table(4, scenario, order or 1, design.n_units, seed=3)
        dataset = realize_dataset(table, sample_assignment(design, 4))
        fit = feasible_rwls(dataset, scenario, order, weights)
        assert fit.weight_model.repaired == ()
        reference = score_meat(fit, dataset)
        assert np.abs(fit.reduced_meat - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_moments_meat_matches_the_score_meat_under_user_rows(self, rng):
        layout = CoefficientLayout(3, full_sequence_set(3))
        rows = np.vstack([assemble("b", 3, layout.scope, 1).matrix[:6], rng.normal(size=(2, layout.size))])
        restriction = restriction_from_rows(layout, rows)
        design = CrossoverDesign(3, {z: 6 for z in layout.scope})
        dataset = make_dataset(design, rng)
        fit = feasible_rwls(dataset, "b", 1, "sample", restriction)
        reference = score_meat(fit, dataset)
        assert np.abs(fit.reduced_meat - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.abs(fit.gamma - nullspace_restricted_wls(dataset, fit.weight_model, restriction)).max() < 1e-10

    def test_weighted_basis_is_n_omega_inverse_times_the_basis_block(self, rng):
        design = CrossoverDesign(3, {z: 5 for z in full_sequence_set(3)[::2]})
        fit = feasible_rwls(make_dataset(design, rng), "c", 1)
        basis = dense_basis(fit.restriction)
        for z, g in fit.weighted_basis.items():
            expected = design.counts[z] * fit.weight_model.inverses[z] @ basis[fit.layout.block(z)]
            assert np.abs(g - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("scenario,order", [("a", None), ("b", 2), ("c", 1)])
    def test_long_horizon_fit_builds_no_dense_basis_and_matches_a_dense_reference(self, scenario, order):
        dataset = _implemented_scope_dataset(30, 40, seed=6, scenario=scenario, order=order)
        fit = feasible_rwls(dataset, scenario, order)
        assert fit.weight_model.repaired == ()
        reference = dense_basis(fit.restriction) @ np.linalg.solve(*_dense_reduced_system(fit))
        assert np.abs(fit.gamma - reference).max() <= 1e-10 * np.abs(reference).max()


class TestSymmetricRepairedInverses:
    def test_only_repaired_inverses_are_symmetrized(self, rng):
        half = rng.normal(size=(3, 6, 4))
        singular = half @ half.swapaxes(1, 2)
        full = rng.normal(size=(3, 6, 6))
        full = full @ full.swapaxes(1, 2) + np.eye(6)
        stack = np.concatenate([singular, full])
        matrices, mask = repair_positive_definite(stack)
        assert mask.tolist() == [True] * 3 + [False] * 3
        model = WeightModel._from_covariances(stack, full_sequence_set(3)[:6], "sample")
        assert model.repaired == full_sequence_set(3)[:3]
        for (z, inverse), matrix, fixed in zip(model.inverses.items(), matrices, mask):
            if fixed:
                assert np.array_equal(inverse, inverse.T)
                assert np.abs(inverse - np.linalg.inv(matrix)).max() <= 1e-6 * np.abs(inverse).max()
            else:
                assert np.array_equal(inverse, np.linalg.inv(matrix))

    @pytest.mark.parametrize("horizon,units,seed", [(20, 10, 0), (20, 10, 2), (100, 30, 0)])
    def test_scenario_a_fits_with_repaired_sample_weights(self, horizon, units, seed):
        # asymmetric inverses of the repaired blocks left M without a
        # Cholesky factor on these designs
        dataset = _implemented_scope_dataset(horizon, units, seed)
        fit = feasible_rwls(dataset, "a")
        assert fit.weight_model.repaired == dataset.design.observed
        assert np.isfinite(fit.condition_number)
        spec = instantaneous_effect(1, "", dataset.design.scope)
        result = estimate(fit, spec)
        assert np.isfinite(result.point).all() and result.covariance[0, 0] > 0.0
        point, variances = rwls.StackedFit(dataset.design, fit.restriction, spec, "sample", "a")(
            dataset.outcomes[np.concatenate(list(dataset.group_indices().values()))][None]
        )
        assert np.array_equal(point[0], result.point)
        assert np.array_equal(variances[0], np.diag(result.covariance))


class TestOneDecomposition:
    """One ``eigh`` of M gives the positive-definiteness check, cond(M) and
    the whitener H with M^-1 = H H' that every M^-1 product uses."""

    @pytest.mark.parametrize(
        "horizon,scenario,order,weights",
        [(6, "a", None, "sample"), (6, "b", 1, "sample"), (6, "c", 1, "sample"), (6, "b", 2, "pooled"), (7, "b", 1, "sample")],
    )
    def test_whitener_inverts_the_reduced_matrix(self, horizon, scenario, order, weights):
        # three units per sequence over the full 2^T scope
        design = CrossoverDesign(horizon, {z: 3 for z in full_sequence_set(horizon)})
        table = random_consistent_table(horizon, scenario, order or 1, design.n_units, seed=horizon)
        fit = feasible_rwls(realize_dataset(table, sample_assignment(design, 5)), scenario, order, weights)
        reduced = _dense_reduced_system(fit)[0]
        identity = fit.whitener @ fit.whitener.T @ reduced
        assert np.abs(identity - np.eye(len(reduced))).max() <= 1e-12 * fit.condition_number

    def test_long_horizon_fit_and_estimate_match_a_cholesky_reference(self):
        dataset = _implemented_scope_dataset(100, 30, seed=1, scenario="b", order=2)
        scope = dataset.design.scope
        fit = feasible_rwls(dataset, "b", 2)
        # the period-1 effect and a dense row over every coefficient
        draws = np.random.default_rng(2).normal(size=(len(scope), 1, 100))
        dense = dict(zip(scope, draws))
        spec = stack([instantaneous_effect(1, "", scope), EstimandSpec(100, scope, dense, ("dense",))])
        result = estimate(fit, spec)
        basis, layout = dense_basis(fit.restriction), fit.layout
        reduced, rhs = _dense_reduced_system(fit)
        factor = scipy.linalg.cho_factor(reduced)
        gamma = basis @ scipy.linalg.cho_solve(factor, rhs)
        assert np.abs(fit.gamma - gamma).max() <= 1e-12 * np.abs(gamma).max()
        meat = np.zeros_like(reduced)
        for z, idx in dataset.group_indices().items():
            block, inverse = basis[layout.block(z)], fit.weight_model.inverses[z]
            residuals = dataset.outcomes[idx] - gamma[layout.block(z)]
            half = residuals @ inverse @ block
            meat += half.T @ half
        functional = np.zeros((spec.dimension, layout.size))
        for z, w in spec.weights.items():
            functional[:, layout.block(z)] = w
        bm = scipy.linalg.cho_solve(factor, (functional @ basis).T).T
        std_errors = np.sqrt(np.diag(bm @ meat @ bm.T))
        assert np.abs(result.std_errors - std_errors).max() <= 1e-12 * std_errors.max()

    def test_indefinite_reduced_matrix_raises_one_message_from_fit_and_stack(self, rng):
        design = CrossoverDesign(2, {"AB": 4, "BA": 5})
        weights = WeightModel({z: [[1.0, 2.0], [2.0, 1.0]] for z in design.observed})
        restriction = assemble("b", 2, design.scope, 1)
        dataset = make_dataset(design, rng)
        stacked = rwls.StackedFit(design, restriction, instantaneous_effect(1, "", design.scope), weights)
        messages = []
        for run in (lambda: feasible_rwls(dataset, "b", 1, weights, restriction), lambda: stacked(dataset.outcomes[None])):
            with pytest.raises(ConditioningError) as info:
                run()
            messages.append(str(info.value))
        assert messages == ["reduced normal matrix is not positive definite"] * 2

    @pytest.mark.parametrize(
        "horizon,scenario,counts,seed",
        [
            # the criterion c01 and c02 designs and tables
            (2, "b", {"AB": 2, "BA": 2}, 101),
            (2, "b", {"AB": 2, "BA": 2}, 102),
            (2, "b", {"AA": 1, "AB": 1, "BA": 1, "BB": 1}, 103),
            (3, "c", {"AAB": 3, "ABA": 3, "BAA": 3}, 7),
        ],
    )
    def test_oracle_variance_matches_the_per_sequence_sum(self, horizon, scenario, counts, seed):
        design = CrossoverDesign(horizon, counts)
        table = random_consistent_table(horizon, scenario, 1, design.n_units, seed=seed)
        weights = WeightModel({z: table.covariance(z) for z in design.observed}, "user")
        zero_means = {z: np.zeros(horizon) for z in design.observed}
        fit = solve_restricted_wls(design, zero_means, weights, assemble(scenario, horizon, design.scope, 1))
        spec = stack([instantaneous_effect(t, "A" * (t - 1), design.scope) for t in range(1, horizon + 1)])
        want = per_sequence_oracle_variance(fit, spec, table)
        assert np.abs(oracle_variance(fit, spec, table) - want).max() <= 1e-13 * np.abs(want).max()

    def test_oracle_variance_rejects_a_table_of_another_size(self):
        design = CrossoverDesign(2, {"AB": 4, "BA": 4})
        zero_means = {z: np.zeros(2) for z in design.observed}
        fit = solve_restricted_wls(design, zero_means, diagonal_weights(design), assemble("b", 2, design.scope, 1))
        spec = instantaneous_effect(1, "", design.scope)
        assert np.isfinite(oracle_variance(fit, spec, random_consistent_table(2, "b", 1, 8, seed=3))).all()
        with pytest.raises(ValueError, match="table has 30 units, design has 8"):
            oracle_variance(fit, spec, random_consistent_table(2, "b", 1, 30, seed=3))


def _full_scope_dataset(horizon, scenario, order, units, table_seed, assignment_seed):
    """The full 2^T scope with ``units`` per sequence, observed from a table
    consistent with the scenario."""
    design = CrossoverDesign(horizon, {z: units for z in full_sequence_set(horizon)})
    table = random_consistent_table(horizon, scenario, order or 1, design.n_units, seed=table_seed)
    return realize_dataset(table, sample_assignment(design, assignment_seed))


class TestSingleFitPlanPath:
    """A weight choice fits on the plan's stack path, with no per-sequence
    dicts between the moments and the solve: bitwise the fit under the
    same weights given as a checked WeightModel."""

    @pytest.fixture(
        scope="class",
        params=[
            # the fit-horizon benchmark designs: every covariance is repaired
            # under "sample" (3 units, T >= 6), about half under "pooled"
            pytest.param((6, "a", None, "sample", 3, 1, 1), id="T6-a-sample"),
            pytest.param((6, "b", 1, "sample", 3, 2, 2), id="T6-b-k1-sample"),
            pytest.param((6, "c", 1, "sample", 3, 3, 3), id="T6-c-k1-sample"),
            pytest.param((6, "b", 2, "pooled", 3, 4, 4), id="T6-b-k2-pooled"),
            pytest.param((7, "b", 1, "sample", 3, 5, 5), id="T7-b-k1-sample"),
            # scenario a pools each entry over other sequences: one pooled
            # block is indefinite and repaired
            pytest.param((5, "a", None, "pooled", 12, 41, 7), id="T5-a-pooled-repaired"),
        ],
    )
    def case(self, request):
        horizon, scenario, order, choice, units, table_seed, assignment_seed = request.param
        dataset = _full_scope_dataset(horizon, scenario, order, units, table_seed, assignment_seed)
        if choice == "sample":
            standalone = sample_covariances(dataset)
        else:
            standalone = pooled_covariance_entries(dataset, scenario, order)
        checked = WeightModel(standalone.matrices, standalone.provenance, standalone.repaired)
        fit = feasible_rwls(dataset, scenario, order, choice)
        return dataset, scenario, order, choice, fit, standalone, checked

    def test_choice_fit_is_bitwise_the_fit_under_its_weight_model(self, case):
        dataset, scenario, order, choice, fit, standalone, checked = case
        scope = dataset.design.scope
        ones = "A" * (dataset.design.horizon - 2)
        spec = stack(
            [
                instantaneous_effect(1, "", scope),
                instantaneous_effect(dataset.design.horizon, ones + "A", scope),
                carryover_effect(dataset.design.horizon, 1, ones, "B", scope),
            ]
        )
        result = estimate(fit, spec)
        for weights in (standalone, checked):
            user = feasible_rwls(dataset, scenario, order, weights)
            for name in ("gamma", "beta", "whitener", "reduced_meat", "condition_number", "warnings"):
                assert np.array_equal(getattr(fit, name), getattr(user, name)), name
            other = estimate(user, spec)
            assert np.array_equal(result.point, other.point)
            assert np.array_equal(result.std_errors, other.std_errors)

    def test_weight_model_and_means_are_those_of_the_standalone_model(self, case):
        dataset, _, _, choice, fit, standalone, checked = case
        model = fit.weight_model
        observed = dataset.design.observed
        if choice == "pooled":
            assert model.repaired
        for other in (standalone, checked):
            assert list(model.matrices) == list(other.matrices) == list(observed)
            assert list(model.inverses) == list(other.inverses) == list(observed)
            for z in observed:
                assert np.array_equal(model.matrices[z], other.matrices[z])
                assert np.array_equal(model.inverses[z], other.inverses[z])
            assert model.repaired == other.repaired
            assert model.provenance == other.provenance == choice
        assert list(fit.means) == list(observed)
        for z, mean in sequence_means(dataset).items():
            assert np.array_equal(fit.means[z], mean)


class TestFitOnTheSharedRestriction:
    """``assemble`` shares one read-only restriction per model, so a fit that
    assembles its own is bitwise the fit given one."""

    @pytest.mark.parametrize(
        "horizon,scenario,order,choice,seed",
        [
            (6, "a", None, "sample", 1),
            (6, "b", 1, "sample", 2),
            (6, "c", 1, "sample", 3),
            (6, "b", 2, "pooled", 4),
            (7, "b", 1, "sample", 5),
        ],
    )
    def test_fit_assembling_its_restriction_is_bitwise_the_fit_given_it(self, horizon, scenario, order, choice, seed):
        dataset = _full_scope_dataset(horizon, scenario, order, 3, seed, seed)
        scope = dataset.design.scope
        ones = "A" * (horizon - 2)
        spec = stack([instantaneous_effect(1, "", scope), carryover_effect(horizon, 1, ones, "B", scope)])
        first = feasible_rwls(dataset, scenario, order, choice)
        ClassMap._shared.cache_clear()
        given = assemble(scenario, horizon, scope, order)
        fits = [first, feasible_rwls(dataset, scenario, order, choice, given), feasible_rwls(dataset, scenario, order, choice)]
        assert first.restriction is not given and fits[2].restriction is given
        results = [estimate(fit, spec) for fit in fits]
        for fit, result in zip(fits[1:], results[1:]):
            for name in ("gamma", "beta", "whitener", "reduced_meat", "condition_number", "warnings"):
                assert np.array_equal(getattr(fit, name), getattr(fits[0], name)), name
            assert np.array_equal(result.point, results[0].point)
            assert np.array_equal(result.std_errors, results[0].std_errors)

    def test_scenario_a_fit_reports_no_carryover_order(self, rng):
        dataset = make_dataset(four_seq_design(), rng)
        fit = feasible_rwls(dataset, "a", 2)
        assert fit.carryover_order is None
        assert fit.restriction is assemble("a", 2, dataset.design.scope)

    def test_fit_copies_through_pickle_and_deepcopy(self, rng):
        dataset = make_dataset(four_seq_design(), rng)
        fit = feasible_rwls(dataset, "c", 1)
        spec = instantaneous_effect(2, "A", dataset.design.scope)
        result = estimate(fit, spec)
        for copied in (pickle.loads(pickle.dumps(fit)), copy.deepcopy(fit)):
            assert copied.restriction is not fit.restriction
            for name in ("gamma", "beta", "whitener", "reduced_meat"):
                assert np.array_equal(getattr(copied, name), getattr(fit, name)), name
            other = estimate(copied, spec)
            assert np.array_equal(other.point, result.point)
            assert np.array_equal(other.std_errors, result.std_errors)


class TestSolveRestrictedWlsMeans:
    """``solve_restricted_wls`` reads the means as ``WeightModel`` reads
    its matrices: keys through ``as_sequence``, each entry finite."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_is_rejected_naming_its_sequence(self, bad):
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        means = {as_sequence("AB"): np.array([bad, 1.0]), as_sequence("BA"): np.zeros(2)}
        with pytest.raises(ValueError, match="mean for AB has a non-finite entry"):
            solve_restricted_wls(design, means, diagonal_weights(design), assemble("b", 2, design.scope, 1))

    def test_means_keyed_by_words_fit_as_by_sequences(self, rng):
        design = four_seq_design()
        means = sequence_means(make_dataset(design, rng))
        restriction = assemble("b", 2, design.scope, 1)
        by_sequence = solve_restricted_wls(design, means, diagonal_weights(design), restriction)
        words = {str(z): mean.tolist() for z, mean in means.items()}
        by_word = solve_restricted_wls(design, words, diagonal_weights(design), restriction)
        assert np.array_equal(by_word.gamma, by_sequence.gamma)
        assert list(by_word.means) == list(design.observed)

    def test_missing_mean_is_rejected_naming_its_sequence(self, rng):
        design = four_seq_design()
        means = sequence_means(make_dataset(design, rng))
        del means[as_sequence("BA")]
        with pytest.raises(MissingSequenceError, match="means lack a vector for BA"):
            solve_restricted_wls(design, means, diagonal_weights(design), assemble("b", 2, design.scope, 1))
