"""The textbook two-period estimators, written out by hand.

These group-mean contrasts, the scenario-c variance-minimization programs
and their plug-in variances are the references that the engine view
``crossover.twoperiod.closed_form`` is tested against: the four-sequence
(AA/AB/BA/BB) and two-sequence (AB/BA) designs under scenarios a, b and c.
Entries are pooled by the class ids of ``ClassMap(2, "b", 1)`` through
``rwls.pool_by_class``: period-1 variances by first treatment, period-2
variances by second treatment, and the within-unit covariance by sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from crossover.constraints import ClassMap
from crossover.errors import ConditioningError, MissingSequenceError
from crossover.rwls import ObservedDataset, pool_by_class, repair_positive_definite
from crossover.twoperiod import FOUR_SEQ, TWO_SEQ, TwoPeriodSummary


@dataclass(frozen=True)
class TwoPeriodEntries:
    """Variance entries used by the scenario-c programs.

    ``s1`` is the period-1 variance by first-period treatment, ``s2`` the
    period-2 variance by second-period treatment, ``s12`` the within-unit
    covariance by sequence.
    """

    s1: Mapping[str, float]
    s2: Mapping[str, float]
    s12: Mapping[str, float]

    @classmethod
    def from_summary(cls, summary: TwoPeriodSummary) -> "TwoPeriodEntries":
        """Pool the summary's cross-products by the scenario-b class ids,
        weighting by group degrees of freedom, as ``working_weight_model``
        pools the dataset's."""
        sequences = list(summary.counts)
        counts = np.array(list(summary.counts.values()))
        cross = np.array([summary.cross[z] for z in sequences])
        pooled = pool_by_class(counts, cross, ClassMap(2, "b", 1).ids(sequences)[1], sequences)
        # each sequence is its own (1, 2) class pair: s12 is its covariance
        return cls(
            {z[0]: m[0, 0] for z, m in zip(sequences, pooled)},
            {z[1]: m[1, 1] for z, m in zip(sequences, pooled)},
            {z: float(m[0, 1]) for z, m in zip(sequences, pooled)},
        )

    def block(self, z: str) -> np.ndarray:
        """Repaired 2 x 2 covariance block for one sequence."""
        m = np.array(
            [
                [self.s1[z[0]], self.s12[z]],
                [self.s12[z], self.s2[z[1]]],
            ]
        )
        repaired, _ = repair_positive_definite(m)
        return repaired


def _arm_mean(summary: TwoPeriodSummary, g: str, h: str, period: int) -> float:
    """Count-weighted mean of two groups' period means."""
    n_g, n_h = summary.count(g), summary.count(h)
    return (n_g * summary.mean(g, period) + n_h * summary.mean(h, period)) / (n_g + n_h)


def blue_4seq_scenario_a(summary: TwoPeriodSummary) -> dict[str, float]:
    """Four-sequence design, no anticipation only.

    tau_1 pools the period-1 arm means with count-proportional weights;
    the period-2 contrasts are plain group-mean differences.
    """
    summary.require(FOUR_SEQ)
    out = {"tau_1": _arm_mean(summary, "AA", "AB", 1) - _arm_mean(summary, "BA", "BB", 1)}
    for z1 in "AB":
        out[f"tau_2({z1})"] = summary.mean(z1 + "A", 2) - summary.mean(z1 + "B", 2)
    for z2 in "AB":
        out[f"tau_2^1({z2})"] = summary.mean("A" + z2, 2) - summary.mean("B" + z2, 2)
    return out


def blue_4seq_scenario_b(summary: TwoPeriodSummary) -> dict[str, float]:
    """Four-sequence design, no anticipation plus no carryover (order 1)."""
    summary.require(FOUR_SEQ)
    return {
        "tau_1": _arm_mean(summary, "AA", "AB", 1) - _arm_mean(summary, "BA", "BB", 1),
        "tau_2": _arm_mean(summary, "AA", "BA", 2) - _arm_mean(summary, "AB", "BB", 2),
    }


@dataclass(frozen=True)
class CombinedEstimate:
    """A variance-optimal combination with its weighting diagnostics."""

    value: float
    weights: dict[str, float]
    objective: float


def _blocks(summary: TwoPeriodSummary, blocks: Mapping | None, groups) -> dict[str, np.ndarray]:
    """The given 2 x 2 blocks by word, by default the pooled-entry blocks."""
    if blocks is None:
        entries = TwoPeriodEntries.from_summary(summary)
        return {z: entries.block(z) for z in groups}
    return {z: np.asarray(m, dtype=float) for z, m in blocks.items()}


def blue_4seq_scenario_c(
    summary: TwoPeriodSummary, blocks: Mapping | None = None
) -> CombinedEstimate:
    """Four-sequence design under all three assumptions: minimize the
    estimator variance over unbiased weightings of the eight group means.

    ``blocks`` maps each sequence to the 2 x 2 covariance block entering
    the quadratic objective; by default they carry the pooled period
    variances and per-sequence covariances.  The three linear constraints
    pin down unbiasedness for the common effect.
    """
    summary.require(FOUR_SEQ)
    blocks = _blocks(summary, blocks, FOUR_SEQ)
    q = np.zeros((8, 8))
    for i, z in enumerate(FOUR_SEQ):
        n = summary.count(z)
        q[i, i] = blocks[z][0, 0] / n
        q[4 + i, 4 + i] = blocks[z][1, 1] / n
        q[i, 4 + i] = q[4 + i, i] = blocks[z][0, 1] / n
    a = np.zeros((3, 8))
    a[0, 0:4] = 1.0
    a[1, 4:8] = 1.0
    # the common effect: period 1 of AA and AB, period 2 of AA and BA
    a[2, [0, 1, 4, 6]] = 1.0
    kkt = np.block([[2.0 * q, a.T], [a, np.zeros((3, 3))]])
    rhs = np.concatenate([np.zeros(8), [0.0, 0.0, 1.0]])
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("weight program is singular after repair") from exc
    w = solution[:8]
    value = 0.0
    for i, z in enumerate(FOUR_SEQ):
        value += w[i] * summary.mean(z, 1) + w[4 + i] * summary.mean(z, 2)
    weights = {f"w_1({z})": float(w[i]) for i, z in enumerate(FOUR_SEQ)}
    weights.update({f"w_2({z})": float(w[4 + i]) for i, z in enumerate(FOUR_SEQ)})
    return CombinedEstimate(float(value), weights, float(w @ q @ w))


@dataclass(frozen=True)
class TwoSequenceScenarioA:
    """Only the period-1 contrast is estimable without carryover bounds."""

    tau_1: float
    not_estimable: tuple[str, ...] = (
        "tau_2(A)",
        "tau_2(B)",
        "tau_2^1(A)",
        "tau_2^1(B)",
    )


def blue_2seq_scenario_a(summary: TwoPeriodSummary) -> TwoSequenceScenarioA:
    summary.require(TWO_SEQ)
    return TwoSequenceScenarioA(summary.mean("AB", 1) - summary.mean("BA", 1))


def blue_2seq_scenario_b(summary: TwoPeriodSummary) -> dict[str, float]:
    summary.require(TWO_SEQ)
    return {
        "tau_1": summary.mean("AB", 1) - summary.mean("BA", 1),
        "tau_2": summary.mean("BA", 2) - summary.mean("AB", 2),
    }


def blue_2seq_scenario_c(
    summary: TwoPeriodSummary, blocks: Mapping | None = None
) -> CombinedEstimate:
    """Two-sequence design under all three assumptions.

    The unbiased estimators form the one-parameter family
    p tau1-hat + (1-p) tau2-hat; the variance-minimizing mixing weight is

        p = [ (s2 + s12)(AB)/N_AB + (s2 + s12)(BA)/N_BA ]
            / [ (s1 + s2 + 2 s12)(AB)/N_AB + (s1 + s2 + 2 s12)(BA)/N_BA ].
    """
    summary.require(TWO_SEQ)
    blocks = _blocks(summary, blocks, TWO_SEQ)
    numerator = 0.0
    denominator = 0.0
    objective_parts = {}
    for z in TWO_SEQ:
        n = summary.count(z)
        s1, s12, s2 = blocks[z][0, 0], blocks[z][0, 1], blocks[z][1, 1]
        numerator += (s2 + s12) / n
        denominator += (s1 + s2 + 2.0 * s12) / n
        objective_parts[z] = (s1, s12, s2, n)
    if denominator <= 0.0:
        raise ConditioningError("mixing-weight denominator is not positive")
    p = numerator / denominator
    basic = blue_2seq_scenario_b(summary)
    value = p * basic["tau_1"] + (1.0 - p) * basic["tau_2"]
    objective = 0.0
    for z, (s1, s12, s2, n) in objective_parts.items():
        objective += (p * p * s1 + (1 - p) * (1 - p) * s2 - 2 * p * (1 - p) * s12) / n
    return CombinedEstimate(float(value), {"p": float(p)}, float(objective))


def hand_closed_form(summary: TwoPeriodSummary, scenario: str) -> dict[str, tuple[float, float]]:
    """Label -> (point, conservative variance) of the closed-form estimators
    for the summary's design, which must be exactly the four-sequence or the
    two-sequence design.

    The variances are plug-in bounds that drop the inestimable individual-
    effect variance term, with pooled entries wherever the scenario equates
    them and per-group sample entries otherwise.
    """
    if scenario not in ("a", "b", "c"):
        raise ValueError(f"scenario must be a, b, or c, got {scenario!r}")
    groups = set(summary.counts)
    four = groups == set(FOUR_SEQ)
    if not four and groups != set(TWO_SEQ):
        raise MissingSequenceError(
            f"closed forms cover the AA/AB/BA/BB and AB/BA designs, got groups {sorted(map(str, groups))}"
        )
    if scenario == "c":
        combined = (blue_4seq_scenario_c if four else blue_2seq_scenario_c)(summary)
        return {"tau": (combined.value, combined.objective)}
    n, var = summary.counts, summary.covariances

    def apart(t: int, g: str, h: str) -> float:
        """Per-group bound for the difference of two period-t group means."""
        return var[g][t - 1, t - 1] / n[g] + var[h][t - 1, t - 1] / n[h]

    if four:
        entries = TwoPeriodEntries.from_summary(summary)
        variances = {
            "tau_1": entries.s1["A"] / (n["AA"] + n["AB"]) + entries.s1["B"] / (n["BA"] + n["BB"])
        }
        if scenario == "a":
            variances.update({f"tau_2({z})": apart(2, z + "A", z + "B") for z in "AB"})
            variances.update({f"tau_2^1({z})": apart(2, "A" + z, "B" + z) for z in "AB"})
            points = blue_4seq_scenario_a(summary)
        else:
            variances["tau_2"] = entries.s2["A"] / (n["AA"] + n["BA"]) + entries.s2["B"] / (
                n["AB"] + n["BB"]
            )
            points = blue_4seq_scenario_b(summary)
    else:
        # under a only tau_1 is estimable, the same contrast in both scenarios
        variances = {"tau_1": apart(1, "AB", "BA")}
        if scenario == "b":
            variances["tau_2"] = apart(2, "AB", "BA")
        points = blue_2seq_scenario_b(summary)
    return {label: (points[label], variances[label]) for label in variances}


def paired_difference_estimate(dataset: ObservedDataset) -> float:
    """Within-unit paired-difference estimator for the AB/BA design:
    the average of (period-1 minus period-2) differences in the AB arm and
    (period-2 minus period-1) differences in the BA arm, each over twice
    its group size."""
    if dataset.design.horizon != 2:
        raise ValueError("paired differences need a two-period design")
    groups = dataset.group_indices()
    if "AB" not in groups or "BA" not in groups:
        raise MissingSequenceError("paired differences need AB and BA groups")
    y, ab, ba = dataset.outcomes, groups["AB"], groups["BA"]
    ab_part = float(np.sum(y[ab, 0] - y[ab, 1])) / (2 * ab.size)
    ba_part = float(np.sum(y[ba, 1] - y[ba, 0])) / (2 * ba.size)
    return ab_part + ba_part
