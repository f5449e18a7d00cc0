"""Closed-form estimators for the two-period designs.

These are the textbook estimators for the four-sequence (AA/AB/BA/BB) and
two-sequence (AB/BA) designs under the three assumption scenarios.  They
serve as independent oracles for the general engine and as fast paths:

* scenario a and b estimators are group-mean contrasts with count-
  proportional pooling; they coincide with the engine run under
  independence working weights (diagonal pooled entries);
* scenario c estimators solve a small variance-minimization program over
  unbiased weightings and coincide with the engine run under the full
  pooled weight entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConditioningError, MissingSequenceError
from .rwls import (
    ObservedDataset,
    WeightModel,
    repair_positive_definite,
    sample_covariances,
    sequence_means,
)
from .sequences import TreatmentSequence, as_sequence

FOUR_SEQ = ("AA", "AB", "BA", "BB")
TWO_SEQ = ("AB", "BA")


@dataclass(frozen=True)
class TwoPeriodSummary:
    """Group counts, mean vectors, and sample covariance matrices."""

    counts: Mapping[TreatmentSequence, int]
    means: Mapping[TreatmentSequence, np.ndarray]
    covariances: Mapping[TreatmentSequence, np.ndarray]

    def __post_init__(self):
        counts = {as_sequence(z): int(n) for z, n in self.counts.items()}
        means = {as_sequence(z): np.asarray(m, dtype=float) for z, m in self.means.items()}
        covs = {as_sequence(z): np.asarray(c, dtype=float) for z, c in self.covariances.items()}
        for z in counts:
            if len(z) != 2:
                raise ValueError(f"two-period summary got sequence {z}")
        object.__setattr__(self, "counts", dict(sorted(counts.items())))
        object.__setattr__(self, "means", dict(sorted(means.items())))
        object.__setattr__(self, "covariances", dict(sorted(covs.items())))

    @classmethod
    def from_dataset(cls, dataset: ObservedDataset) -> "TwoPeriodSummary":
        if dataset.design.horizon != 2:
            raise ValueError("summary requires a two-period design")
        covs = sample_covariances(dataset)
        return cls(dict(dataset.design.counts), sequence_means(dataset), covs.matrices)

    def count(self, z: str) -> int:
        return self.counts[as_sequence(z)]

    def mean(self, z: str, period: int) -> float:
        return float(self.means[as_sequence(z)][period - 1])

    def require(self, groups) -> None:
        missing = [g for g in groups if as_sequence(g) not in self.counts]
        if missing:
            raise MissingSequenceError(f"summary lacks groups {missing}")


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
        """Pool entries across the groups equated by the assumptions,
        weighting by group degrees of freedom."""
        s1: dict[str, float] = {}
        s2: dict[str, float] = {}
        s12: dict[str, float] = {}
        groups = [str(z) for z in summary.counts]
        for letter in "AB":
            first = [z for z in groups if z[0] == letter]
            if first:
                dof = sum(summary.count(z) - 1 for z in first)
                total = sum(
                    (summary.count(z) - 1) * summary.covariances[as_sequence(z)][0, 0]
                    for z in first
                )
                s1[letter] = total / dof
            second = [z for z in groups if z[1] == letter]
            if second:
                dof = sum(summary.count(z) - 1 for z in second)
                total = sum(
                    (summary.count(z) - 1) * summary.covariances[as_sequence(z)][1, 1]
                    for z in second
                )
                s2[letter] = total / dof
        for z in groups:
            s12[z] = float(summary.covariances[as_sequence(z)][0, 1])
        return cls(s1, s2, s12)

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


def working_weight_model(dataset: ObservedDataset, scenario: str) -> WeightModel:
    """Weight model under which the engine reproduces the closed forms.

    Scenarios a and b use diagonal blocks of the pooled period variances
    (independence working weights), so the engine's group pooling is
    count-proportional as in the closed forms.  Scenario c uses the full
    per-sequence blocks built from the pooled entries, matching the inputs
    of the variance-minimization programs.
    """
    summary = TwoPeriodSummary.from_dataset(dataset)
    entries = TwoPeriodEntries.from_summary(summary)
    matrices = {}
    repaired = []
    for z in dataset.design.observed:
        word = str(z)
        if scenario == "c":
            block = entries.block(word)
        else:
            block, _ = repair_positive_definite(
                np.diag([entries.s1[word[0]], entries.s2[word[1]]])
            )
        raw = np.array(
            [[entries.s1[word[0]], entries.s12[word]], [entries.s12[word], entries.s2[word[1]]]]
        )
        if not np.array_equal(block, np.diag(np.diag(raw)) if scenario != "c" else raw):
            repaired.append(z)
        matrices[z] = block
    return WeightModel(matrices, "pooled", tuple(repaired))


def blue_4seq_scenario_a(summary: TwoPeriodSummary) -> dict[str, float]:
    """Four-sequence design, no anticipation only.

    tau_1 pools the period-1 arm means with count-proportional weights;
    the period-2 contrasts are plain group-mean differences.
    """
    summary.require(FOUR_SEQ)
    out: dict[str, float] = {}

    def pooled_first(arm: str) -> float:
        n_a, n_b = summary.count(arm + "A"), summary.count(arm + "B")
        return (
            n_a * summary.mean(arm + "A", 1) + n_b * summary.mean(arm + "B", 1)
        ) / (n_a + n_b)

    out["tau_1"] = pooled_first("A") - pooled_first("B")
    for z1 in "AB":
        out[f"tau_2({z1})"] = summary.mean(z1 + "A", 2) - summary.mean(z1 + "B", 2)
    for z2 in "AB":
        out[f"tau_2^1({z2})"] = summary.mean("A" + z2, 2) - summary.mean("B" + z2, 2)
    return out


def blue_4seq_scenario_b(summary: TwoPeriodSummary) -> dict[str, float]:
    """Four-sequence design, no anticipation plus no carryover (order 1)."""
    summary.require(FOUR_SEQ)
    out = {"tau_1": blue_4seq_scenario_a(summary)["tau_1"]}

    def pooled_second(arm: str) -> float:
        n_a, n_b = summary.count("A" + arm), summary.count("B" + arm)
        return (
            n_a * summary.mean("A" + arm, 2) + n_b * summary.mean("B" + arm, 2)
        ) / (n_a + n_b)

    out["tau_2"] = pooled_second("A") - pooled_second("B")
    return out


@dataclass(frozen=True)
class CombinedEstimate:
    """A variance-optimal combination with its weighting diagnostics."""

    value: float
    weights: dict[str, float]
    objective: float


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
    if blocks is None:
        entries = TwoPeriodEntries.from_summary(summary)
        blocks = {z: entries.block(z) for z in FOUR_SEQ}
    else:
        blocks = {str(z): np.asarray(m, dtype=float) for z, m in blocks.items()}
    q = np.zeros((8, 8))
    for i, z in enumerate(FOUR_SEQ):
        n = summary.count(z)
        q[i, i] = blocks[z][0, 0] / n
        q[4 + i, 4 + i] = blocks[z][1, 1] / n
        q[i, 4 + i] = q[4 + i, i] = blocks[z][0, 1] / n
    a = np.zeros((3, 8))
    a[0, 0:4] = 1.0
    a[1, 4:8] = 1.0
    idx = {z: i for i, z in enumerate(FOUR_SEQ)}
    a[2, idx["AA"]] = a[2, idx["AB"]] = 1.0
    a[2, 4 + idx["AA"]] = a[2, 4 + idx["BA"]] = 1.0
    b = np.array([0.0, 0.0, 1.0])
    kkt = np.zeros((11, 11))
    kkt[:8, :8] = 2.0 * q
    kkt[:8, 8:] = a.T
    kkt[8:, :8] = a
    rhs = np.concatenate([np.zeros(8), b])
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
    if blocks is None:
        entries = TwoPeriodEntries.from_summary(summary)
        blocks = {z: entries.block(z) for z in TWO_SEQ}
    else:
        blocks = {str(z): np.asarray(m, dtype=float) for z, m in blocks.items()}
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


def conservative_variances(summary: TwoPeriodSummary, scenario: str) -> dict[str, float]:
    """Plug-in variance bounds that drop the inestimable individual-effect
    variance term.  Pooled entries are used wherever the scenario equates
    them; otherwise per-group sample entries."""
    if scenario not in ("a", "b", "c"):
        raise ValueError(f"scenario must be a, b, or c, got {scenario!r}")
    groups = {str(z) for z in summary.counts}
    entries = TwoPeriodEntries.from_summary(summary)
    out: dict[str, float] = {}
    if groups >= set(FOUR_SEQ):
        n = {z: summary.count(z) for z in FOUR_SEQ}
        var = {z: summary.covariances[as_sequence(z)] for z in FOUR_SEQ}
        if scenario in ("a", "b"):
            out["tau_1"] = entries.s1["A"] / (n["AA"] + n["AB"]) + entries.s1["B"] / (
                n["BA"] + n["BB"]
            )
        if scenario == "a":
            for z1 in "AB":
                out[f"tau_2({z1})"] = (
                    var[z1 + "A"][1, 1] / n[z1 + "A"] + var[z1 + "B"][1, 1] / n[z1 + "B"]
                )
            for z2 in "AB":
                out[f"tau_2^1({z2})"] = (
                    var["A" + z2][1, 1] / n["A" + z2] + var["B" + z2][1, 1] / n["B" + z2]
                )
        elif scenario == "b":
            out["tau_2"] = entries.s2["A"] / (n["AA"] + n["BA"]) + entries.s2["B"] / (
                n["AB"] + n["BB"]
            )
        else:
            out["tau"] = blue_4seq_scenario_c(summary).objective
    elif groups >= set(TWO_SEQ):
        n = {z: summary.count(z) for z in TWO_SEQ}
        var = {z: summary.covariances[as_sequence(z)] for z in TWO_SEQ}
        if scenario in ("a", "b"):
            out["tau_1"] = var["AB"][0, 0] / n["AB"] + var["BA"][0, 0] / n["BA"]
        if scenario == "b":
            out["tau_2"] = var["AB"][1, 1] / n["AB"] + var["BA"][1, 1] / n["BA"]
        if scenario == "c":
            out["tau"] = blue_2seq_scenario_c(summary).objective
    else:
        raise MissingSequenceError(f"unsupported group set {sorted(groups)}")
    return out


def paired_difference_estimate(dataset: ObservedDataset) -> float:
    """Within-unit paired-difference estimator for the AB/BA design:
    the average of (period-1 minus period-2) differences in the AB arm and
    (period-2 minus period-1) differences in the BA arm, each over twice
    its group size."""
    if dataset.design.horizon != 2:
        raise ValueError("paired differences need a two-period design")
    groups = dataset.group_indices()
    ab = as_sequence("AB")
    ba = as_sequence("BA")
    if ab not in groups or ba not in groups:
        raise MissingSequenceError("paired differences need AB and BA groups")
    y = dataset.outcomes
    ab_part = float(np.sum(y[groups[ab], 0] - y[groups[ab], 1])) / (2 * groups[ab].size)
    ba_part = float(np.sum(y[groups[ba], 1] - y[groups[ba], 0])) / (2 * groups[ba].size)
    return ab_part + ba_part
