import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossover import (
    EstimandSpec,
    PotentialOutcomeTable,
    all_instantaneous_effects,
    carryover_effect,
    full_sequence_set,
    individual_effect_covariance,
    instantaneous_effect,
    marginal_effect,
    stack,
    standard_two_period_specs,
    true_value,
)
from crossover import twoperiod
from crossover.estimands import _linear_combination

SCOPE2 = full_sequence_set(2)


def weight_row(spec, z):
    return spec.weight(z)[0]


def constant_table(value, horizon=2, n_units=3):
    scope = full_sequence_set(horizon)
    return PotentialOutcomeTable(
        horizon, {z: np.full((n_units, horizon), value) for z in scope}
    )


class TestInstantaneousEffect:
    def test_period2_history_a(self):
        spec = instantaneous_effect(2, "A", SCOPE2)
        assert np.allclose(weight_row(spec, "AA"), [0, 1])
        assert np.allclose(weight_row(spec, "AB"), [0, -1])
        assert np.allclose(weight_row(spec, "BA"), [0, 0])
        assert np.allclose(weight_row(spec, "BB"), [0, 0])
        assert spec.labels == ("tau_2(A)",)

    def test_period1_averages_completions(self):
        spec = instantaneous_effect(1, "", SCOPE2)
        assert np.allclose(weight_row(spec, "AA"), [0.5, 0])
        assert np.allclose(weight_row(spec, "AB"), [0.5, 0])
        assert np.allclose(weight_row(spec, "BA"), [-0.5, 0])
        assert np.allclose(weight_row(spec, "BB"), [-0.5, 0])

    def test_zero_on_constant_table(self):
        spec = instantaneous_effect(2, "A", SCOPE2)
        assert true_value(spec, constant_table(3.7)) == pytest.approx(0.0)

    def test_history_length_checked(self):
        with pytest.raises(ValueError):
            instantaneous_effect(2, "AB", SCOPE2)

    def test_prefix_variants_match_on_consistent_table(self, rng):
        # identical outcomes across any shared length-t prefix
        from crossover import random_consistent_table

        table = random_consistent_table(3, "a", 1, 12, seed=4)
        scope3 = full_sequence_set(3)
        base = instantaneous_effect(2, "A", scope3)
        variant_weights = {
            "AAA": np.array([[0.0, 1.0, 0.0]]),
            "AAB": np.array([[0.0, 0.0, 0.0]]),
            "ABA": np.array([[0.0, -1.0, 0.0]]),
        }
        variant = base.__class__(3, scope3, variant_weights, ("tau_2(A) alt",))
        assert true_value(base, table) == pytest.approx(
            true_value(variant, table)[0], abs=1e-12
        )


class TestCarryoverEffect:
    def test_first_order_at_period2(self):
        spec = carryover_effect(2, 1, "", "B", SCOPE2)
        assert np.allclose(weight_row(spec, "AB"), [0, 1])
        assert np.allclose(weight_row(spec, "BB"), [0, -1])
        assert np.allclose(weight_row(spec, "AA"), [0, 0])
        assert spec.labels == ("tau_2^1(B)",)

    def test_order_zero_delegates(self):
        spec = carryover_effect(2, 0, "A", "", SCOPE2)
        direct = instantaneous_effect(2, "A", SCOPE2)
        assert spec.labels == direct.labels
        for z in SCOPE2:
            assert np.allclose(spec.weight(z), direct.weight(z))

    def test_second_order_matches_direct_mean_difference(self, rng):
        scope3 = full_sequence_set(3)
        table = PotentialOutcomeTable(
            3, {z: rng.normal(size=(7, 3)) for z in scope3}
        )
        spec = carryover_effect(3, 2, "", "AB", scope3)
        expected = table.mean_vector("AAB")[2] - table.mean_vector("BAB")[2]
        assert true_value(spec, table)[0] == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            carryover_effect(2, 1, "A", "B", SCOPE2)


class TestMarginalEffect:
    def test_average_of_conditional_contrasts(self):
        spec = marginal_effect(
            [instantaneous_effect(2, "A", SCOPE2), instantaneous_effect(2, "B", SCOPE2)]
        )
        assert np.allclose(weight_row(spec, "AA"), [0, 0.5])
        assert np.allclose(weight_row(spec, "AB"), [0, -0.5])
        assert np.allclose(weight_row(spec, "BA"), [0, 0.5])
        assert np.allclose(weight_row(spec, "BB"), [0, -0.5])

    def test_single_spec_weight_one(self):
        base = instantaneous_effect(1, "", SCOPE2)
        spec = marginal_effect([base], [1.0], labels=base.labels)
        for z in SCOPE2:
            assert np.allclose(spec.weight(z), base.weight(z))

    def test_degenerate_weights_pick_first(self):
        first = instantaneous_effect(2, "A", SCOPE2)
        second = instantaneous_effect(2, "B", SCOPE2)
        spec = marginal_effect([first, second], [1.0, 0.0], labels=first.labels)
        for z in SCOPE2:
            assert np.allclose(spec.weight(z), first.weight(z))

    def test_weights_must_be_probabilities(self):
        specs = [instantaneous_effect(2, "A", SCOPE2), instantaneous_effect(2, "B", SCOPE2)]
        with pytest.raises(ValueError):
            marginal_effect(specs, [0.7, 0.7])


class TestStack:
    def test_joint_carryover_blocks(self):
        spec = stack(
            [carryover_effect(2, 1, "", "A", SCOPE2), carryover_effect(2, 1, "", "B", SCOPE2)]
        )
        assert np.allclose(spec.weight("AA"), [[0, 1], [0, 0]])
        assert np.allclose(spec.weight("AB"), [[0, 0], [0, 1]])
        assert np.allclose(spec.weight("BA"), [[0, -1], [0, 0]])
        assert np.allclose(spec.weight("BB"), [[0, 0], [0, -1]])

    def test_single_spec_identity(self):
        base = instantaneous_effect(1, "", SCOPE2)
        assert stack([base]) is base

    def test_five_standard_contrasts_equal_counts(self):
        # equal group counts make the count-weighted period-1 pooling uniform
        specs = [
            instantaneous_effect(1, "", SCOPE2),
            instantaneous_effect(2, "A", SCOPE2),
            instantaneous_effect(2, "B", SCOPE2),
            carryover_effect(2, 1, "", "A", SCOPE2),
            carryover_effect(2, 1, "", "B", SCOPE2),
        ]
        joint = stack(specs)
        assert joint.dimension == 5
        assert np.allclose(
            joint.weight("AA"),
            [[0.5, 0], [0, 1], [0, 0], [0, 1], [0, 0]],
        )
        assert np.allclose(
            joint.weight("AB"),
            [[0.5, 0], [0, -1], [0, 0], [0, 0], [0, 1]],
        )
        assert np.allclose(
            joint.weight("BA"),
            [[-0.5, 0], [0, 0], [0, 1], [0, -1], [0, 0]],
        )
        assert np.allclose(
            joint.weight("BB"),
            [[-0.5, 0], [0, 0], [0, -1], [0, 0], [0, -1]],
        )


class TestEnumerationHelper:
    @pytest.mark.parametrize("period,expected", [(1, 1), (2, 2), (3, 4)])
    def test_counts(self, period, expected):
        scope3 = full_sequence_set(3)
        assert len(all_instantaneous_effects(period, scope3)) == expected


class TestTrueValue:
    def test_zero_table(self):
        spec = instantaneous_effect(2, "A", SCOPE2)
        assert true_value(spec, constant_table(0.0))[0] == 0.0

    def test_constant_shift(self):
        outcomes = {
            "AA": np.ones((4, 2)),
            "AB": np.ones((4, 2)),
            "BA": np.zeros((4, 2)),
            "BB": np.zeros((4, 2)),
        }
        table = PotentialOutcomeTable(2, outcomes)
        assert true_value(instantaneous_effect(1, "", SCOPE2), table)[0] == pytest.approx(1.0)

    def test_matches_direct_mean_difference(self, rng):
        table = PotentialOutcomeTable(2, {z: rng.normal(size=(9, 2)) for z in SCOPE2})
        spec = instantaneous_effect(2, "A", SCOPE2)
        expected = table.mean_vector("AA")[1] - table.mean_vector("AB")[1]
        assert true_value(spec, table)[0] == pytest.approx(expected, abs=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b, seed):
        from hypothesis import assume

        assume(abs(a) + abs(b) > 1e-6)
        rng = np.random.default_rng(seed)
        table = PotentialOutcomeTable(2, {z: rng.normal(size=(5, 2)) for z in SCOPE2})
        first = instantaneous_effect(2, "A", SCOPE2)
        second = carryover_effect(2, 1, "", "B", SCOPE2)
        combo = _linear_combination([first, second], [a, b], ("combo",))
        expected = a * true_value(first, table)[0] + b * true_value(second, table)[0]
        assert true_value(combo, table)[0] == pytest.approx(expected, abs=1e-9)


class TestIndividualEffectCovariance:
    def test_constant_effects_vanish(self):
        table = constant_table(2.0, n_units=5)
        spec = instantaneous_effect(2, "A", SCOPE2)
        assert np.allclose(individual_effect_covariance(spec, table), 0.0)

    def test_hand_counted_variance(self):
        outcomes = {
            "AA": np.array([[0.0, 0.0], [0.0, 2.0]]),
            "AB": np.zeros((2, 2)),
            "BA": np.zeros((2, 2)),
            "BB": np.zeros((2, 2)),
        }
        table = PotentialOutcomeTable(2, outcomes)
        spec = instantaneous_effect(2, "A", SCOPE2)
        # individual effects are 0 and 2, sample variance 2
        assert individual_effect_covariance(spec, table)[0, 0] == pytest.approx(2.0)

    def test_symmetric_psd(self, rng):
        table = PotentialOutcomeTable(2, {z: rng.normal(size=(6, 2)) for z in SCOPE2})
        spec = stack(
            [instantaneous_effect(1, "", SCOPE2), instantaneous_effect(2, "A", SCOPE2)]
        )
        cov = individual_effect_covariance(spec, table)
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_single_unit_rejected(self):
        from crossover import DegenerateCovarianceError

        table = PotentialOutcomeTable(2, {z: np.zeros((1, 2)) for z in SCOPE2})
        with pytest.raises(DegenerateCovarianceError):
            individual_effect_covariance(instantaneous_effect(1, "", SCOPE2), table)


class TestScopesOfAnotherLength:
    """A scope mixing sequence lengths is refused, not read as a shorter
    horizon."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: carryover_effect(2, 1, "", "A", ("AA", "AB", "BA", "BAA")), "BAA has length 3, expected 2"),
            (lambda: instantaneous_effect(1, "", ("AA", "BA", "BAA")), "BAA has length 3, expected 2"),
            (lambda: all_instantaneous_effects(2, ("AA", "AB", "BAA")), "BAA has length 3, expected 2"),
            (lambda: EstimandSpec(3, ("AB", "BA"), {"AB": [[1, 0, 0]]}, ("x",)), "AB has length 2, expected 3"),
        ],
        ids=["carryover", "instantaneous", "all-instantaneous", "spec-scope"],
    )
    def test_refused_with_one_message(self, build, message):
        with pytest.raises(ValueError, match=f"^sequence {message}$"):
            build()

    def test_spec_weights_are_ordered_by_sequence(self):
        weights = {"BA": [[-1.0, 0.0]], "AB": [[1.0, 0.0]]}
        spec = EstimandSpec(2, ("BA", "AB"), weights, ("x",))
        assert list(spec.weights) == ["AB", "BA"]
        assert spec.scope == ("AB", "BA")


def _specs_of_every_builder():
    scope3 = full_sequence_set(3)
    instantaneous = instantaneous_effect(2, "A", scope3)
    carryover = carryover_effect(3, 1, "A", "B", scope3)
    two = ("AB", "BA")
    return {
        "instantaneous": instantaneous,
        "carryover": carryover,
        "all-instantaneous": all_instantaneous_effects(3, scope3)[1],
        "standard-two-period": standard_two_period_specs(SCOPE2)[3],
        "stack": stack([instantaneous, carryover]),
        "marginal": marginal_effect([instantaneous, carryover]),
        "given": EstimandSpec(2, SCOPE2, {"BA": [[-1, 0]], "AB": np.array([[1.0, 0.0]])}, ("x",)),
        **{f"twoperiod-{s}": twoperiod._reported_rows(SCOPE2, s) for s in ("a", "b", "c")},
        "twoperiod-two-sequence": twoperiod._reported_rows(two, "b"),
    }


class TestBlockStack:
    """A spec copies its W blocks once into a read-only (n, K, T) stack, and
    ``weights`` maps each sequence to its view into it."""

    @pytest.mark.parametrize("name,spec", _specs_of_every_builder().items())
    def test_weights_are_read_only_views_of_the_stack(self, name, spec):
        blocks = spec.blocks
        assert blocks.shape == (len(spec.weights), spec.dimension, spec.horizon)
        assert not blocks.flags.writeable
        for block, (z, w) in zip(blocks, spec.weights.items()):
            assert w.base is blocks and not w.flags.writeable
            assert np.shares_memory(w, blocks) and np.array_equal(w, block)
            assert spec.weight(z) is w
        with pytest.raises(TypeError):
            spec.weights["AB"] = np.zeros((spec.dimension, spec.horizon))
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 1.0

    def test_the_given_arrays_are_copied(self):
        given = np.array([[1.0, 0.0]])
        spec = EstimandSpec(2, SCOPE2, {"AB": given, "BA": -given}, ("x",))
        given[0, 0] = 5.0
        assert spec.weight("AB").tolist() == [[1.0, 0.0]]

    def test_copies_through_pickle_and_deepcopy(self):
        spec = stack([instantaneous_effect(1, "", SCOPE2), carryover_effect(2, 1, "", "A", SCOPE2)])
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied.labels == spec.labels and copied.scope == spec.scope
            assert np.array_equal(copied.blocks, spec.blocks) and not copied.blocks.flags.writeable
            assert all(w.base is copied.blocks for w in copied.weights.values())
