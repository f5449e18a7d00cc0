import numpy as np
import pytest

from crossover import (
    CrossoverDesign,
    DegenerateCovarianceError,
    EstimandSpec,
    MissingSequenceError,
    enumerate_assignments,
    estimate,
    feasible_rwls,
    instantaneous_effect,
    point_estimate,
    random_consistent_table,
    realize_dataset,
    stack,
    standard_two_period_specs,
)
from crossover.rwls import ObservedDataset, pooled_covariance_entries, repair_positive_definite
from crossover.twoperiod import TwoPeriodSummary, closed_form, conservative_variances, working_weight_model
from conftest import make_dataset
from twoperiod_reference import (
    TwoPeriodEntries,
    blue_2seq_scenario_a,
    blue_2seq_scenario_b,
    blue_2seq_scenario_c,
    blue_4seq_scenario_a,
    blue_4seq_scenario_b,
    blue_4seq_scenario_c,
    hand_closed_form,
    paired_difference_estimate,
)


def summary_from_means(counts, means, covs=None):
    covs = covs or {z: np.eye(2) for z in counts}
    return TwoPeriodSummary(counts, {z: np.asarray(m, float) for z, m in means.items()}, covs)


FOUR = ("AA", "AB", "BA", "BB")


def four_seq_dataset(rng, counts=(5, 6, 7, 5)):
    design = CrossoverDesign(2, dict(zip(FOUR, counts)))
    return make_dataset(design, rng)


def two_seq_dataset(rng, counts=(6, 7)):
    design = CrossoverDesign(2, dict(zip(("AB", "BA"), counts)))
    return make_dataset(design, rng)


class TestScenarioAFourSequences:
    def test_constant_arms(self):
        means = {"AA": [1, 0], "AB": [1, 0], "BA": [0, 0], "BB": [0, 0]}
        summary = summary_from_means(dict(zip(FOUR, [2, 2, 2, 2])), means)
        assert blue_4seq_scenario_a(summary)["tau_1"] == pytest.approx(1.0)

    def test_unequal_counts_weight_by_group_size(self):
        means = {"AA": [2.0, 0], "AB": [0.0, 0], "BA": [0, 0], "BB": [0, 0]}
        summary = summary_from_means({"AA": 3, "AB": 1, "BA": 2, "BB": 2}, means)
        # period-1 A-arm mean pools 3/4 of AA and 1/4 of AB
        assert blue_4seq_scenario_a(summary)["tau_1"] == pytest.approx(1.5)

    def test_matches_engine_with_working_weights(self, rng):
        dataset = four_seq_dataset(rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        closed = blue_4seq_scenario_a(summary)
        fit = feasible_rwls(dataset, "a", None, working_weight_model(dataset, "a"))
        result = estimate(fit, stack(standard_two_period_specs(dataset.design.scope)))
        for i, label in enumerate(result.labels):
            assert result.point[i] == pytest.approx(closed[label], abs=1e-9)

    def test_missing_group_rejected(self):
        summary = summary_from_means({"AB": 2, "BA": 2}, {"AB": [0, 0], "BA": [0, 0]})
        with pytest.raises(MissingSequenceError):
            blue_4seq_scenario_a(summary)


class TestScenarioBFourSequences:
    def test_tau1_identical_to_scenario_a(self, rng):
        summary = TwoPeriodSummary.from_dataset(four_seq_dataset(rng))
        assert blue_4seq_scenario_b(summary)["tau_1"] == blue_4seq_scenario_a(summary)["tau_1"]

    def test_constant_outcomes_give_zero(self):
        means = {z: [1.3, 1.3] for z in FOUR}
        summary = summary_from_means(dict(zip(FOUR, [2, 2, 2, 2])), means)
        out = blue_4seq_scenario_b(summary)
        assert out["tau_1"] == pytest.approx(0.0)
        assert out["tau_2"] == pytest.approx(0.0)

    def test_matches_engine_with_working_weights(self, rng):
        dataset = four_seq_dataset(rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        closed = blue_4seq_scenario_b(summary)
        fit = feasible_rwls(dataset, "b", 1, working_weight_model(dataset, "b"))
        scope = dataset.design.scope
        result = estimate(
            fit, stack([instantaneous_effect(1, "", scope), instantaneous_effect(2, "A", scope)])
        )
        assert result.point[0] == pytest.approx(closed["tau_1"], abs=1e-9)
        assert result.point[1] == pytest.approx(closed["tau_2"], abs=1e-9)


class TestScenarioCFourSequences:
    def test_symmetric_inputs_give_symmetric_weights(self):
        means = {z: [0.0, 0.0] for z in FOUR}
        summary = summary_from_means(dict(zip(FOUR, [4, 4, 4, 4])), means)
        entries = TwoPeriodEntries({"A": 1.0, "B": 1.0}, {"A": 1.0, "B": 1.0}, {z: 0.0 for z in FOUR})
        blocks = {z: entries.block(z) for z in FOUR}
        result = blue_4seq_scenario_c(summary, blocks)
        w = result.weights
        assert w["w_1(AA)"] == pytest.approx(w["w_1(AB)"], abs=1e-10)
        assert w["w_1(AA)"] == pytest.approx(-w["w_1(BA)"], abs=1e-10)
        assert w["w_1(AA)"] == pytest.approx(-w["w_1(BB)"], abs=1e-10)
        assert w["w_2(AA)"] == pytest.approx(w["w_2(BA)"], abs=1e-10)
        assert w["w_2(AA)"] == pytest.approx(-w["w_2(AB)"], abs=1e-10)
        assert w["w_2(AA)"] == pytest.approx(0.25, abs=1e-10)

    def test_matches_engine_with_working_weights(self, rng):
        dataset = four_seq_dataset(rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        model = working_weight_model(dataset, "c")
        closed = blue_4seq_scenario_c(summary, model.matrices)
        fit = feasible_rwls(dataset, "c", 1, model)
        result = estimate(fit, instantaneous_effect(1, "", dataset.design.scope))
        assert result.point[0] == pytest.approx(closed.value, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_pools_the_engine_inputs_at_two_units_per_group(self, seed):
        # at 2 units per group the sample covariances are rank one and the
        # repair lifts them; the closed form must pool the raw cross-products
        rng = np.random.default_rng(seed)
        design = CrossoverDesign(2, dict.fromkeys(FOUR, 2))
        dataset = make_dataset(design, rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        model = working_weight_model(dataset, "c")
        entries = TwoPeriodEntries.from_summary(summary)
        for z in design.observed:
            assert np.array_equal(entries.block(str(z)), model.matrix(z))
        closed = closed_form(summary, "c")["tau"]
        # only the cross-products enter: the unrepaired covariances give the same fit
        unrepaired = {z: summary.cross[z] / (n - 1) for z, n in summary.counts.items()}
        assert closed == closed_form(TwoPeriodSummary(summary.counts, summary.means, unrepaired, summary.cross), "c")["tau"]
        fit = feasible_rwls(dataset, "c", 1, model)
        result = estimate(fit, instantaneous_effect(1, "", dataset.design.scope))
        assert closed[0] == result.point[0]
        assert result.point[0] == pytest.approx(closed[0], rel=1e-6, abs=1e-8)

    def test_matches_nullspace_program(self, rng):
        # independent quadratic-program solve over the unbiased weightings
        import scipy.linalg

        dataset = four_seq_dataset(rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        mats = {}
        for z in FOUR:
            a = rng.normal(size=(2, 2))
            mats[z] = a @ a.T + 0.4 * np.eye(2)
        result = blue_4seq_scenario_c(summary, mats)
        q = np.zeros((8, 8))
        for i, z in enumerate(FOUR):
            n = summary.count(z)
            q[i, i] = mats[z][0, 0] / n
            q[4 + i, 4 + i] = mats[z][1, 1] / n
            q[i, 4 + i] = q[4 + i, i] = mats[z][0, 1] / n
        a_mat = np.zeros((3, 8))
        a_mat[0, 0:4] = 1
        a_mat[1, 4:8] = 1
        a_mat[2, [0, 1, 4, 6]] = 1
        particular = np.linalg.lstsq(a_mat, np.array([0.0, 0.0, 1.0]), rcond=None)[0]
        basis = scipy.linalg.null_space(a_mat)
        xi = np.linalg.solve(basis.T @ q @ basis, -basis.T @ q @ particular)
        w = particular + basis @ xi
        means8 = np.array(
            [summary.mean(z, 1) for z in FOUR] + [summary.mean(z, 2) for z in FOUR]
        )
        assert result.value == pytest.approx(float(w @ means8), abs=1e-9)
        assert result.objective == pytest.approx(float(w @ q @ w), abs=1e-9)


class TestTwoSequenceClosedForms:
    def test_scenario_a_difference_and_verdicts(self):
        summary = summary_from_means({"AB": 2, "BA": 2}, {"AB": [3.0, 9.0], "BA": [1.0, 7.0]})
        result = blue_2seq_scenario_a(summary)
        assert result.tau_1 == pytest.approx(2.0)
        assert "tau_2(A)" in result.not_estimable
        assert "tau_2^1(B)" in result.not_estimable

    def test_scenario_b_hand_case(self):
        summary = summary_from_means({"AB": 2, "BA": 2}, {"AB": [0.0, 0.5], "BA": [0.0, 2.0]})
        out = blue_2seq_scenario_b(summary)
        assert out["tau_2"] == pytest.approx(1.5)

    def test_scenario_b_constant_data(self):
        summary = summary_from_means({"AB": 3, "BA": 3}, {"AB": [1.0, 1.0], "BA": [1.0, 1.0]})
        out = blue_2seq_scenario_b(summary)
        assert out["tau_1"] == 0.0 == out["tau_2"]

    def test_scenario_b_matches_engine(self, rng):
        dataset = two_seq_dataset(rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        closed = blue_2seq_scenario_b(summary)
        fit = feasible_rwls(dataset, "b", 1)
        scope = dataset.design.scope
        result = estimate(
            fit, stack([instantaneous_effect(1, "", scope), instantaneous_effect(2, "A", scope)])
        )
        assert result.point[0] == pytest.approx(closed["tau_1"], abs=1e-9)
        assert result.point[1] == pytest.approx(closed["tau_2"], abs=1e-9)

    def test_scenario_a_matches_engine_on_restricted_scope(self, rng):
        design = CrossoverDesign(2, {"AB": 6, "BA": 7}, scope=("AB", "BA"))
        dataset = make_dataset(design, rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        fit = feasible_rwls(dataset, "a", None)
        result = estimate(fit, instantaneous_effect(1, "", design.scope))
        assert result.point[0] == pytest.approx(blue_2seq_scenario_a(summary).tau_1, abs=1e-9)


class TestScenarioCTwoSequences:
    def test_symmetric_entries_give_half(self):
        summary = summary_from_means({"AB": 4, "BA": 4}, {"AB": [0.0, 0.0], "BA": [0.0, 0.0]})
        blocks = {"AB": np.array([[2.0, 0.5], [0.5, 2.0]]), "BA": np.array([[2.0, 0.5], [0.5, 2.0]])}
        assert blue_2seq_scenario_c(summary, blocks).weights["p"] == pytest.approx(0.5)

    def test_vanishing_numerator_uses_period2_only(self):
        summary = summary_from_means({"AB": 4, "BA": 4}, {"AB": [5.0, 1.0], "BA": [2.0, 3.0]})
        blocks = {
            "AB": np.array([[3.0, -1.0], [-1.0, 1.0]]),
            "BA": np.array([[3.0, -1.0], [-1.0, 1.0]]),
        }
        result = blue_2seq_scenario_c(summary, blocks)
        assert result.weights["p"] == pytest.approx(0.0)
        assert result.value == pytest.approx(blue_2seq_scenario_b(summary)["tau_2"])

    def test_matches_engine_with_sample_weights(self, rng):
        dataset = two_seq_dataset(rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        model = working_weight_model(dataset, "c")
        closed = blue_2seq_scenario_c(summary, model.matrices)
        fit = feasible_rwls(dataset, "c", 1, model)
        result = estimate(fit, instantaneous_effect(1, "", dataset.design.scope))
        assert result.point[0] == pytest.approx(closed.value, abs=1e-8)

    def test_optimal_among_fixed_mixes_on_enumeration(self):
        # exact randomization variance of the optimal mix never exceeds the
        # fixed alternatives evaluated with the true covariance entries
        design = CrossoverDesign(2, {"AB": 2, "BA": 2})
        table = random_consistent_table(2, "c", 1, 4, seed=41)
        blocks = {str(z): table.covariance(z) for z in design.observed}
        counts = {"AB": 2, "BA": 2}
        variances = {}
        p_values = {}
        summary0 = None
        for assignment in enumerate_assignments(design):
            dataset = realize_dataset(table, assignment)
            summary = TwoPeriodSummary.from_dataset(dataset)
            summary0 = summary0 or summary
            basic = blue_2seq_scenario_b(summary)
            for p in (0.0, 0.25, 0.5, 0.75, 1.0, "opt"):
                if p == "opt":
                    mix = blue_2seq_scenario_c(summary, blocks).weights["p"]
                else:
                    mix = p
                variances.setdefault(p, []).append(
                    mix * basic["tau_1"] + (1 - mix) * basic["tau_2"]
                )
        spread = {p: np.var(vals) for p, vals in variances.items()}
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert spread["opt"] <= spread[p] + 1e-9


class TestConservativeVariances:
    def test_zero_variances_give_zero(self):
        covs = {z: np.zeros((2, 2)) for z in FOUR}
        means = {z: [0.0, 0.0] for z in FOUR}
        summary = summary_from_means(dict(zip(FOUR, [3, 3, 3, 3])), means, covs)
        out = conservative_variances(summary, "b")
        assert out["tau_1"] == pytest.approx(0.0)
        assert out["tau_2"] == pytest.approx(0.0)

    def test_hand_computed_period1_bound(self):
        covs = {
            "AA": np.diag([4.0, 1.0]),
            "AB": np.diag([4.0, 1.0]),
            "BA": np.diag([1.0, 1.0]),
            "BB": np.diag([1.0, 1.0]),
        }
        means = {z: [0.0, 0.0] for z in FOUR}
        summary = summary_from_means(dict(zip(FOUR, [4, 4, 4, 4])), means, covs)
        out = conservative_variances(summary, "a")
        assert out["tau_1"] == pytest.approx(4.0 / 8.0 + 1.0 / 8.0)

    def test_dominates_exact_variance_under_heterogeneity(self):
        # the bound drops a nonnegative term, so on average it sits above
        # the exact randomization variance
        design = CrossoverDesign(2, {"AB": 3, "BA": 3})
        table = random_consistent_table(2, "b", 1, 6, seed=55)
        bounds = []
        points = []
        for assignment in enumerate_assignments(design):
            dataset = realize_dataset(table, assignment)
            summary = TwoPeriodSummary.from_dataset(dataset)
            bounds.append(conservative_variances(summary, "b")["tau_1"])
            points.append(blue_2seq_scenario_b(summary)["tau_1"])
        assert np.mean(bounds) >= np.var(points) - 1e-9


class TestPairedDifference:
    def test_equals_half_sum_of_contrasts(self, rng):
        for _ in range(5):
            dataset = two_seq_dataset(rng, (5, 5))
            summary = TwoPeriodSummary.from_dataset(dataset)
            basic = blue_2seq_scenario_b(summary)
            assert paired_difference_estimate(dataset) == pytest.approx(
                (basic["tau_1"] + basic["tau_2"]) / 2, abs=1e-10
            )


class TestPoolingByClassIds:
    @pytest.mark.parametrize("seed", range(40))
    def test_summary_entries_and_working_weights_match_the_engine_pooling(self, seed):
        rng = np.random.default_rng(seed)
        groups = FOUR if seed % 2 else ("AB", "BA")
        design = CrossoverDesign(2, {z: int(n) for z, n in zip(groups, rng.integers(3, 9, size=len(groups)))})
        dataset = make_dataset(design, rng)
        # per-sequence scales and shared terms leave some pooled blocks indefinite
        scale = rng.uniform(0.2, 3.0, size=(len(groups), 2))[dataset.codes]
        shared = rng.normal(size=(dataset.n_units, 1)) * rng.uniform(0.0, 3.0, size=len(groups))[dataset.codes, None]
        dataset = ObservedDataset(design, dataset.codes, dataset.outcomes * scale + shared)
        entries = TwoPeriodEntries.from_summary(TwoPeriodSummary.from_dataset(dataset))
        engine = pooled_covariance_entries(dataset, "b", 1)
        repaired = []
        for z in design.observed:
            w = str(z)
            raw = np.array([[entries.s1[w[0]], entries.s12[w]], [entries.s12[w], entries.s2[w[1]]]])
            if repair_positive_definite(raw)[1]:
                repaired.append(z)
            np.testing.assert_allclose(entries.block(w), engine.matrix(z), rtol=1e-15, atol=0)
        assert tuple(repaired) == engine.repaired
        model = working_weight_model(dataset, "c")
        reference = pooled_covariance_entries(dataset, "c", 1)
        for z in design.observed:
            np.testing.assert_allclose(model.matrix(z), reference.matrix(z), rtol=1e-15, atol=0)
        assert model.repaired == reference.repaired


class TestClosedForm:
    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    @pytest.mark.parametrize("groups", [FOUR, ("AB", "BA")])
    def test_picks_the_estimator_of_the_design_and_scenario(self, rng, groups, scenario):
        # the engine fit on the implemented scope under the working weights
        design = CrossoverDesign(2, {z: 5 + i for i, z in enumerate(groups)}, scope=groups)
        dataset = make_dataset(design, rng)
        summary = TwoPeriodSummary.from_dataset(dataset)
        fit = feasible_rwls(dataset, scenario, 1, working_weight_model(dataset, scenario))
        four = len(groups) == 4
        tau_1 = instantaneous_effect(1, "", groups)
        if scenario == "c":
            labels, spec = ["tau"], tau_1
        elif scenario == "a":
            spec = stack(standard_two_period_specs(groups)) if four else tau_1
            labels = spec.labels
        else:
            # the A-minus-B contrast of period-2 means
            ba_minus_ab = EstimandSpec(2, groups, {"AB": [[0.0, -1.0]], "BA": [[0.0, 1.0]]}, ("tau_2",))
            labels, spec = ["tau_1", "tau_2"], stack([tau_1, instantaneous_effect(2, "A", groups) if four else ba_minus_ab])
        expected = dict(zip(labels, point_estimate(fit, spec)))
        forms = closed_form(summary, scenario)
        assert [(label, point) for label, (point, _) in forms.items()] == list(expected.items())
        assert conservative_variances(summary, scenario) == {label: v for label, (_, v) in forms.items()}

    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    def test_other_group_sets_raise(self, scenario):
        three = ("AA", "AB", "BA")
        summary = summary_from_means(dict.fromkeys(three, 3), {z: [0.0, 1.0] for z in three})
        with pytest.raises(MissingSequenceError, match="AA/AB/BA/BB and AB/BA designs"):
            conservative_variances(summary, scenario)

    def test_unknown_scenario_raises(self):
        summary = summary_from_means({"AB": 3, "BA": 3}, {"AB": [0, 0], "BA": [0, 0]})
        with pytest.raises(ValueError, match="scenario must be"):
            closed_form(summary, "d")


class TestSummaryInput:
    @pytest.mark.parametrize("field", ["counts", "means", "covariances", "cross"])
    def test_a_key_of_another_length_is_refused(self, field):
        parts = {
            "counts": {"AB": 3, "BA": 3},
            "means": {"AB": [0.0, 1.0], "BA": [1.0, 0.0]},
            "covariances": {"AB": np.eye(2), "BA": np.eye(2)},
            "cross": {"AB": 2 * np.eye(2), "BA": 2 * np.eye(2)},
        }
        parts[field]["ABA"] = parts[field]["AB"]
        with pytest.raises(ValueError, match="^sequence ABA has length 3, expected 2$"):
            TwoPeriodSummary(**parts)

    @pytest.mark.parametrize("count", [2.5, np.float64(3.7), float("nan"), float("inf"), "3", None])
    def test_non_integer_count_is_refused_naming_its_sequence(self, count):
        with pytest.raises(ValueError, match="^count for AB must be a whole number"):
            summary_from_means({"AB": count, "BA": 3}, {"AB": [0, 0], "BA": [0, 0]})

    def test_a_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^count for BA must be positive, got 0$"):
            summary_from_means({"AB": 3, "BA": 0}, {"AB": [0, 0], "BA": [0, 0]})

    @pytest.mark.parametrize("count", [3, np.int64(3), 3.0, np.float64(3.0)])
    def test_integral_counts_are_kept_as_int(self, count):
        summary = summary_from_means({"BA": 2, "AB": count}, {"AB": [0, 0], "BA": [0, 0]})
        assert list(summary.counts.items()) == [("AB", 3), ("BA", 2)]
        assert all(type(n) is int for n in summary.counts.values())

    @pytest.mark.parametrize(
        "field,value,error,message",
        [
            ("means", {"AB": [0.0, 1.0]}, MissingSequenceError, "^summary lacks a mean for BA$"),
            ("means", {"AB": [0.0, 1.0], "BA": [1.0, 0.0, 2.0]}, ValueError, r"^mean for BA must have shape \(2,\), got \(3,\)$"),
            ("means", {"AB": [0.0, float("nan")], "BA": [1.0, 0.0]}, ValueError, "^mean for AB has a non-finite entry$"),
            ("covariances", {"AB": [[1.0, 5.0], [0.0, 1.0]], "BA": np.eye(2)}, ValueError, "^covariance for AB must be symmetric$"),
            ("covariances", {"AB": np.eye(2)}, MissingSequenceError, "^summary lacks a covariance for BA$"),
            ("cross", {"AB": np.eye(2), "BA": np.ones((2, 3))}, ValueError, r"^cross-product for BA must have shape \(2, 2\)"),
            ("means", {"AB": [0.0, 1.0], "BA": [1.0, 0.0], "BB": [0.0, 0.0]}, ValueError, "^mean given for BB, which has no count$"),
        ],
    )
    def test_malformed_group_inputs_are_refused_naming_the_sequence(self, field, value, error, message):
        parts = {
            "counts": {"AB": 3, "BA": 3},
            "means": {"AB": [0.0, 1.0], "BA": [1.0, 0.0]},
            "covariances": {"AB": np.eye(2), "BA": np.eye(2)},
        }
        parts[field] = value
        with pytest.raises(error, match=message):
            TwoPeriodSummary(**parts)

    @pytest.mark.parametrize("scenario", ["a", "b", "c"])
    def test_a_single_unit_group_has_no_pooled_entry(self, scenario):
        summary = summary_from_means({"AB": 1, "BA": 3}, {"AB": [0, 0], "BA": [0, 0]})
        with pytest.raises(DegenerateCovarianceError, match=r"^entry \(1,1\) pooled over \[.*'AB'.*\] has no degrees of freedom$"):
            closed_form(summary, scenario)


class TestAgreementWithHandFormulas:
    """``closed_form`` against the hand formulas on 200 random datasets per
    design, 3-40 units per sequence, under every scenario: unrepaired fits
    agree to 1e-12, repaired ones to 64 cond(M) 2^-52."""

    @pytest.mark.parametrize("groups", [FOUR, ("AB", "BA")])
    def test_points_and_variances_match(self, groups):
        rng = np.random.default_rng(27)
        repaired_fits = 0
        for _ in range(200):
            counts = {z: int(n) for z, n in zip(groups, rng.integers(3, 41, size=len(groups)))}
            design = CrossoverDesign(2, counts, scope=groups)
            dataset = make_dataset(design, rng)
            summary = TwoPeriodSummary.from_dataset(dataset)
            for scenario in ("a", "b", "c"):
                forms, hand = closed_form(summary, scenario), hand_closed_form(summary, scenario)
                assert list(forms) == list(hand)
                weights = working_weight_model(dataset, scenario)
                bound = 1e-12
                if weights.repaired:
                    repaired_fits += 1
                    condition = feasible_rwls(dataset, scenario, 1, weights).condition_number
                    bound = 64 * condition * 2.0**-52
                for label, (point, variance) in forms.items():
                    hand_point, hand_variance = hand[label]
                    scale = abs(hand_point) + np.sqrt(hand_variance)
                    assert abs(point - hand_point) <= bound * scale, (scenario, label)
                    assert abs(variance - hand_variance) <= bound * hand_variance, (scenario, label)
        # small four-sequence designs repair some pooled scenario-c blocks
        assert repaired_fits > 0 if len(groups) == 4 else repaired_fits == 0
