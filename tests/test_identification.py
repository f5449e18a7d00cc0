import itertools

import numpy as np
import pytest

from crossover import (
    CoefficientLayout,
    CrossoverDesign,
    assemble,
    full_sequence_set,
    is_identifiable,
    mean_derivation_time_invariant,
    mean_witness_carryover,
    mean_witness_no_anticipation,
    time_invariant_closure,
)
from crossover.constraints import RestrictionMatrix
from crossover.identification import DifferencedMean, MeanTarget, WitnessedMean

from conftest import dense_basis, gram_plus_restriction


def empty_restriction(horizon, scope):
    layout = CoefficientLayout(horizon, scope)
    return RestrictionMatrix(layout, np.zeros((0, layout.size)))


class TestRegressorStructure:
    def test_block_has_identity_in_own_columns(self):
        # each unit of BA observes BA's own coefficients: X'X = N_z I there
        design = CrossoverDesign(2, {"BA": 3})
        layout = CoefficientLayout(2, design.scope)
        gram = gram_plus_restriction(design, empty_restriction(2, design.scope))
        assert gram.shape == (8, 8)
        assert gram.sum() == 6
        assert np.array_equal(gram[layout.block("BA"), layout.block("BA")], 3 * np.eye(2))


class TestGramPlusRestriction:
    def test_fully_observed_design_is_count_diagonal(self):
        design = CrossoverDesign(2, {"AA": 3, "AB": 5, "BA": 2, "BB": 7})
        gram = gram_plus_restriction(design, empty_restriction(2, design.scope))
        assert np.array_equal(gram, np.diag([3, 3, 5, 5, 2, 2, 7, 7]))

    def test_two_sequence_scenario_a_zero_columns(self):
        design = CrossoverDesign(2, {"AB": 4, "BA": 6})
        gram = gram_plus_restriction(design, assemble("a", 2, design.scope))
        # the unused period-2 coefficients of AA and BB touch nothing
        layout = CoefficientLayout(2, design.scope)
        for col in (layout.column(2, "AA"), layout.column(2, "BB")):
            assert np.all(gram[:, col] == 0)
            assert np.all(gram[col, :] == 0)

    def test_two_sequence_scenario_a_matches_hand_matrix(self):
        n_ab, n_ba = 4, 6
        design = CrossoverDesign(2, {"AB": n_ab, "BA": n_ba})
        gram = gram_plus_restriction(design, assemble("a", 2, design.scope))
        expected = np.array(
            [
                [1, 0, -1, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 0],
                [-1, 0, n_ab + 1, 0, 0, 0, 0, 0],
                [0, 0, 0, n_ab, 0, 0, 0, 0],
                [0, 0, 0, 0, n_ba + 1, 0, -1, 0],
                [0, 0, 0, 0, 0, n_ba, 0, 0],
                [0, 0, 0, 0, -1, 0, 1, 0],
                [0, 0, 0, 0, 0, 0, 0, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(gram, expected)

    def test_single_observed_sequence_padded_diagonal(self):
        design = CrossoverDesign(2, {"AB": 5})
        gram = gram_plus_restriction(design, empty_restriction(2, design.scope))
        layout = CoefficientLayout(2, design.scope)
        expected = np.zeros((8, 8))
        sl = layout.block("AB")
        expected[sl, sl] = 5 * np.eye(2)
        assert np.array_equal(gram, expected)


# twelve implemented sequences of a T=6 design, identifiable under scenario
# b with k=2 whatever the unit counts
TWELVE_T6 = tuple(
    "AAAABA AAABAA AAABAB AABAAB AABABA AABBAB ABABAA ABBABB BAAABA BABABB BABBBA BBAABB".split()
)


class TestIsIdentifiable:
    def test_two_sequence_scenario_b_identifiable(self):
        design = CrossoverDesign(2, {"AB": 4, "BA": 6})
        check = is_identifiable(design, assemble("b", 2, design.scope, 1))
        assert check.identifiable
        assert check.rank == check.dimension == 8

    def test_two_sequence_scenario_a_rank_deficient(self):
        design = CrossoverDesign(2, {"AB": 4, "BA": 6})
        check = is_identifiable(design, assemble("a", 2, design.scope))
        assert not check.identifiable
        assert check.rank == 6

    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    def test_four_sequence_identifiable_everywhere(self, scenario):
        design = CrossoverDesign(2, {"AA": 2, "AB": 2, "BA": 2, "BB": 2})
        order = None if scenario == "a" else 1
        check = is_identifiable(design, assemble(scenario, 2, design.scope, order))
        assert check.identifiable

    def test_verdict_is_kept_per_implemented_set(self):
        restriction = assemble("a", 2, full_sequence_set(2))
        two = CrossoverDesign(2, {"AB": 4, "BA": 6})
        four = CrossoverDesign(2, {"AA": 2, "AB": 2, "BA": 2, "BB": 2})
        assert not is_identifiable(two, restriction).identifiable
        assert is_identifiable(four, restriction).identifiable
        assert is_identifiable(CrossoverDesign(2, {"AB": 40, "BA": 1}), restriction).rank == 6
        assert len(restriction._sets) == 2

    @pytest.mark.parametrize(
        "sequences,order,per_sequence",
        [
            (TWELVE_T6, 2, 10**3),
            (TWELVE_T6, 2, 10**4),
            (TWELVE_T6, 2, 10**6),
            (("AB", "BA"), 1, 10**8),
        ],
    )
    def test_verdict_does_not_depend_on_counts(self, sequences, order, per_sequence):
        design = CrossoverDesign(len(sequences[0]), {z: per_sequence for z in sequences})
        check = is_identifiable(design, assemble("b", design.horizon, design.scope, order))
        assert check.identifiable
        assert check.rank == check.dimension == design.horizon * len(design.scope)


class TestPrefixWitness:
    def test_shared_prefix_at_period_one(self):
        assert str(mean_witness_no_anticipation("AA", 1, ("AB", "BA"))) == "AB"

    def test_unreached_mean_at_period_two(self):
        assert mean_witness_no_anticipation("AA", 2, ("AB", "BA")) is None

    def test_implemented_target_is_its_own_witness(self):
        observed = ("AA", "AB", "BA")
        assert str(mean_witness_no_anticipation("AB", 1, observed)) == "AB"


class TestWindowWitness:
    def test_trailing_window_match(self):
        # order-2 window AA at the final period is reached through BAA
        witness = mean_witness_carryover("AAA", 3, 2, ("BAA",))
        assert str(witness) == "BAA"

    def test_two_sequence_order_one(self):
        witness = mean_witness_carryover("AA", 2, 1, ("AB", "BA"))
        assert str(witness) == "BA"

    def test_early_periods_use_prefix_rule(self):
        observed = ("AB", "BA")
        for target in ("AA", "AB", "BA", "BB"):
            assert mean_witness_carryover(target, 1, 2, observed) == (
                mean_witness_no_anticipation(target, 1, observed)
            )

    def test_order_equal_to_horizon_degenerates_to_prefix_rule(self):
        observed = ("AAB", "BAA")
        for target in ("AAA", "ABA", "BAB", "BBA"):
            for period in (1, 2, 3):
                assert mean_witness_carryover(target, period, 3, observed) == (
                    mean_witness_no_anticipation(target, period, observed)
                )


class TestTimeInvariantClosure:
    def test_difference_in_differences_derivation(self):
        # order 2: the period-2 AB mean follows from (2,AA), (3,AB), (3,AA)
        observed = ("AAB", "BAA")
        derivation = mean_derivation_time_invariant("ABB", 2, 2, observed)
        assert isinstance(derivation, DifferencedMean)
        assert derivation.target == MeanTarget(2, "AB")
        assert derivation.reference_window == "AA"
        assert derivation.other_period == 3
        parts = {c.target for c in derivation.components}
        assert parts == {MeanTarget(3, "AB"), MeanTarget(2, "AA"), MeanTarget(3, "AA")}
        assert all(isinstance(c, WitnessedMean) for c in derivation.components)

    def test_directly_witnessed_means_are_single_nodes(self):
        derivation = mean_derivation_time_invariant("BAA", 3, 2, ("BAA",))
        assert isinstance(derivation, WitnessedMean)
        assert str(derivation.witness) == "BAA"

    def test_empty_observed_set_reaches_nothing(self):
        closure = time_invariant_closure(3, 2, ())
        assert closure == {}

    def test_monotone_in_observed_set(self):
        smaller = set(time_invariant_closure(3, 2, ("AAB",)))
        larger = set(time_invariant_closure(3, 2, ("AAB", "BAA")))
        assert smaller <= larger


class TestObservedSetsOfAnotherLength:
    """Implemented sequences of another length than the target or the
    horizon are refused, not truncated or matched on a prefix."""

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: mean_witness_no_anticipation("AB", 1, ["ABBB"]), "ABBB has length 4, expected 2"),
            (lambda: mean_witness_carryover("AA", 2, 1, ["BAB"]), "BAB has length 3, expected 2"),
            (lambda: time_invariant_closure(2, 1, ["ABA", "BB"]), "ABA has length 3, expected 2"),
            (lambda: mean_derivation_time_invariant("AB", 1, 1, ["ABA", "BB"]), "ABA has length 3, expected 2"),
        ],
        ids=["prefix-witness", "window-witness", "closure", "derivation"],
    )
    def test_refused_with_one_message(self, call, message):
        with pytest.raises(ValueError, match=f"^sequence {message}$"):
            call()

    def test_a_design_of_another_horizon_is_refused(self):
        design = CrossoverDesign(3, {"AAB": 2, "BAA": 2})
        with pytest.raises(ValueError, match="^sequence AAB has length 3, expected 2$"):
            mean_witness_no_anticipation("AB", 1, design)


class TestGlobalLocalAgreement:
    @pytest.mark.parametrize(
        "counts,scenario,order",
        [
            ({"AB": 3, "BA": 3}, "b", 1),
            ({"AB": 3, "BA": 3}, "c", 1),
            ({"AA": 2, "AB": 2, "BA": 2, "BB": 2}, "a", None),
            ({"AAB": 2, "ABA": 2, "BAA": 2}, "b", 1),
            ({"AAB": 2, "ABA": 2, "BAA": 2}, "c", 1),
        ],
    )
    def test_global_identifiability_implies_witnesses(self, counts, scenario, order):
        design = CrossoverDesign(len(next(iter(counts))), counts)
        check = is_identifiable(
            design, assemble(scenario, design.horizon, design.scope, order)
        )
        assert check.identifiable
        for z in design.scope:
            for t in range(1, design.horizon + 1):
                if scenario == "a":
                    found = mean_witness_no_anticipation(z, t, design)
                elif scenario == "b":
                    found = mean_witness_carryover(z, t, order, design)
                else:
                    found = mean_derivation_time_invariant(z, t, order, design)
                assert found is not None, (str(z), t)


class TestRankAtClassWidth:
    @pytest.mark.parametrize("scenario,order", [("a", None), ("b", 1), ("b", 2), ("c", 1), ("c", 2)])
    def test_rank_check_reads_the_rows_of_q_for_the_classes_hit(self, monkeypatch, scenario, order):
        from crossover import constraints

        scope = full_sequence_set(5)
        design = CrossoverDesign(5, {z: 2 for z in scope[::3]}, scope=scope)
        restriction = assemble(scenario, 5, scope, order)
        shapes, records = [], []
        svd, record = np.linalg.svd, constraints.ImplementedSet
        monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: shapes.append(m.shape) or svd(m, *a, **k))
        monkeypatch.setattr(constraints, "ImplementedSet", lambda *fields: records.append(fields) or record(*fields))
        check = is_identifiable(design, restriction)
        hit = np.unique(restriction.class_ids.reshape(len(scope), 5)[::3])
        # under a and b N is the identity: the rank is the number of classes hit
        assert shapes == ([] if scenario in "ab" else [(len(hit), restriction.dimension)])
        assert len(records) == 1
        basis = dense_basis(restriction)
        dense = np.vstack([basis[restriction.layout.block(z)] for z in design.observed])
        expected = restriction.layout.size - restriction.dimension + np.linalg.matrix_rank(dense)
        assert check.rank == expected

    @staticmethod
    def _identity_null_restrictions(horizon):
        scope = full_sequence_set(horizon)
        models = [("a", None)] + [("b", k) for k in range(1, horizon + 1)]
        return [assemble(s, horizon, scope, k) for s, k in models] + [empty_restriction(horizon, scope)]

    @staticmethod
    def _dense_rank(restriction, observed):
        basis = dense_basis(restriction)
        dense = np.vstack([basis[restriction.layout.block(z)] for z in observed])
        return restriction.layout.size - restriction.dimension + np.linalg.matrix_rank(dense)

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_rank_by_construction_is_the_dense_rank_on_every_set(self, horizon):
        # N = I under a, b and zero rows: rank(Q_hit) is the number of classes hit
        scope = full_sequence_set(horizon)
        sets = [c for size in range(1, len(scope) + 1) for c in itertools.combinations(scope, size)]
        for restriction in self._identity_null_restrictions(horizon):
            assert restriction.null_basis is None
            for observed in sets:
                assert restriction.implemented(observed).rank == self._dense_rank(restriction, observed), observed

    @pytest.mark.parametrize("horizon", [4, 5])
    def test_rank_by_construction_is_the_dense_rank_on_random_sets(self, horizon):
        scope = full_sequence_set(horizon)
        rng = np.random.default_rng(horizon)
        restrictions = self._identity_null_restrictions(horizon)
        for _ in range(100):
            chosen = np.flatnonzero(rng.random(len(scope)) < rng.uniform(0.05, 0.6))
            observed = tuple(scope[i] for i in chosen) or scope[:1]
            for restriction in restrictions:
                assert restriction.implemented(observed).rank == self._dense_rank(restriction, observed), observed
