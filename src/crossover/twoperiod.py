"""The two-period closed forms, as views of the engine.

The textbook estimators for the four-sequence (AA/AB/BA/BB) and
two-sequence (AB/BA) designs under the three assumption scenarios are
special cases of one restricted weighted least squares fit.
``closed_form`` makes that fit from a summary of the data: the means on the
implemented scope, under the scenario's pooled working weights
(``working_weight_model``), and reports the textbook labels:

* under a, tau_1 and, on four sequences, tau_2(A|B) and tau_2^1(A|B);
* under b, tau_1 and tau_2, the A-minus-B contrast of period-2 means;
* under c, tau, the common effect tau_1.

Under a and b the pooled working weights are diagonal, so each class pools
its sequences in proportion to their counts, as the group-mean contrasts
do.  Under c the fit is the variance-minimizing unbiased weighting of the
group means.  The hand formulas are kept in the test suite as oracles of
this fit.

The variances are the conservative plug-in ones, sum_z M(z) S_z M(z)' /
N_z with M(z) the fit's weights on the group means: under a and b S_z is
the pooled diagonal, under c the repaired pooled block, the weights
themselves, so the variance is (BZ) M^-1 (BZ)'.  They drop the inestimable
individual-effect variance term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constraints import ClassMap, assemble
from .errors import MissingSequenceError
from .estimands import EstimandSpec, instantaneous_effect, stack
from .rwls import (
    ObservedDataset,
    WeightModel,
    _fixed_weight_covariance,
    point_estimate,
    pool_by_class,
    sample_covariances,
    sequence_means,
    solve_restricted_wls,
)
from .sequences import CrossoverDesign, TreatmentSequence, _unit_count, as_sequence, sequence_set
from .simulator import standard_two_period_specs

FOUR_SEQ = ("AA", "AB", "BA", "BB")
TWO_SEQ = ("AB", "BA")


def _by_group(counts, given, name: str, shape: tuple[int, ...]) -> dict[TreatmentSequence, np.ndarray]:
    """The arrays of ``given`` for exactly the counted groups: each of the
    shape and finite, and a matrix symmetric by ``WeightModel``'s scale-free
    rule.  Errors name the group."""
    arrays = {z: np.asarray(given[z], float) for z in sequence_set(given, 2)}
    missing = [z for z in counts if z not in arrays]
    if missing:
        raise MissingSequenceError(f"summary lacks a {name} for {missing[0]}")
    for z, a in arrays.items():
        if z not in counts:
            raise ValueError(f"{name} given for {z}, which has no count")
        if a.shape != shape:
            raise ValueError(f"{name} for {z} must have shape {shape}, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} for {z} has a non-finite entry")
        if a.ndim == 2 and np.abs(a - a.T).max() > 1e-5 * np.abs(a).max():
            raise ValueError(f"{name} for {z} must be symmetric")
    return arrays


@dataclass(frozen=True)
class TwoPeriodSummary:
    """Group counts, mean vectors, and sample covariance matrices.

    ``cross`` holds each group's centered cross-products R_z'R_z, from
    which the pooled entries are formed: ``from_dataset`` takes them from
    the dataset's moments, and a summary given none takes (N_z - 1) times
    its covariances.  Every counted group needs a finite mean of length 2
    and finite symmetric 2 x 2 matrices, and no other group may have them."""

    counts: Mapping[TreatmentSequence, int]
    means: Mapping[TreatmentSequence, np.ndarray]
    covariances: Mapping[TreatmentSequence, np.ndarray]
    cross: Mapping[TreatmentSequence, np.ndarray] | None = None

    def __post_init__(self):
        counts = {z: _unit_count(z, self.counts[z]) for z in sequence_set(self.counts, 2)}
        means = _by_group(counts, self.means, "mean", (2,))
        covs = _by_group(counts, self.covariances, "covariance", (2, 2))
        if self.cross is None:
            cross = {z: (n - 1) * covs[z] for z, n in counts.items()}
        else:
            cross = _by_group(counts, self.cross, "cross-product", (2, 2))
        vars(self).update(counts=counts, means=means, covariances=covs, cross=cross)

    @classmethod
    def from_dataset(cls, dataset: ObservedDataset) -> "TwoPeriodSummary":
        if dataset.design.horizon != 2:
            raise ValueError("summary requires a two-period design")
        covs = sample_covariances(dataset)
        cross = dict(zip(dataset.design.observed, dataset.moments.cross))
        return cls(dict(dataset.design.counts), sequence_means(dataset), covs.matrices, cross)

    def count(self, z: str) -> int:
        return self.counts[as_sequence(z)]

    def mean(self, z: str, period: int) -> float:
        return float(self.means[as_sequence(z)][period - 1])

    def require(self, groups) -> None:
        missing = [g for g in groups if as_sequence(g) not in self.counts]
        if missing:
            raise MissingSequenceError(f"summary lacks groups {missing}")


def _working_covariances(counts: np.ndarray, cross: np.ndarray, sequences, scenario: str) -> np.ndarray:
    """The unrepaired (k, 2, 2) working covariances: the cross-products
    pooled by the scenario's class ids, the scenario-b ids under c, which
    adds no equalities; under a and b only their diagonal is kept."""
    classes = ClassMap(2, "b" if scenario == "c" else scenario, 1)
    pooled = pool_by_class(counts, cross, classes.ids(sequences)[1], sequences)
    if scenario != "c":
        pooled[:, 0, 1] = pooled[:, 1, 0] = 0.0
    return pooled


def working_weight_model(dataset: ObservedDataset, scenario: str) -> WeightModel:
    """Weight model under which the engine reproduces the closed forms:
    the dataset's working covariances (see ``closed_form``), repaired."""
    if dataset.design.horizon != 2:
        raise ValueError("working weights require a two-period design")
    counts, _, cross = dataset.moments
    observed = dataset.design.observed
    return WeightModel._from_covariances(_working_covariances(counts, cross, observed, scenario), observed, "pooled")


def _reported_rows(groups: tuple[TreatmentSequence, ...], scenario: str) -> EstimandSpec:
    """The rows ``closed_form`` reports, under their labels."""
    four = len(groups) == 4
    specs = standard_two_period_specs(groups) if four else [instantaneous_effect(1, "", groups)]
    if scenario == "a":
        return stack(specs)
    if scenario == "c":
        return EstimandSpec(2, groups, specs[0].weights, ("tau",))
    tau_2 = specs[1].weights if four else {"AB": [[0.0, -1.0]], "BA": [[0.0, 1.0]]}
    return stack([specs[0], EstimandSpec(2, groups, tau_2, ("tau_2",))])


def closed_form(summary: TwoPeriodSummary, scenario: str) -> dict[str, tuple[float, float]]:
    """Label -> (point, conservative variance) of the closed-form estimators
    for the summary's design, which must be exactly the four-sequence or the
    two-sequence design: one engine fit of the means on the implemented
    scope under the working weights (see the module docstring).  Too few
    units for a pooled entry raise DegenerateCovarianceError.
    """
    if scenario not in ("a", "b", "c"):
        raise ValueError(f"scenario must be a, b, or c, got {scenario!r}")
    groups = tuple(summary.counts)
    if set(groups) not in (set(FOUR_SEQ), set(TWO_SEQ)):
        raise MissingSequenceError(
            f"closed forms cover the AA/AB/BA/BB and AB/BA designs, got groups {sorted(map(str, groups))}"
        )
    counts = np.array(list(summary.counts.values()))
    cross = np.stack([summary.cross[z] for z in groups])
    covariances = _working_covariances(counts, cross, groups, scenario)
    weights = WeightModel._from_covariances(covariances, groups, "pooled")
    restriction = assemble(scenario, 2, groups, 1)
    fit = solve_restricted_wls(CrossoverDesign(2, summary.counts, groups), summary.means, weights, restriction)
    rows = _reported_rows(groups, scenario)
    # a pooled diagonal is never indefinite and enters as pooled, so a zero
    # variance adds zero; a scenario-c block may be, and enters repaired
    plug_in = weights.stack if scenario == "c" else covariances
    variances = np.diagonal(_fixed_weight_covariance(fit, rows, plug_in))
    return {label: (float(p), float(v)) for label, p, v in zip(rows.labels, point_estimate(fit, rows), variances)}


def conservative_variances(summary: TwoPeriodSummary, scenario: str) -> dict[str, float]:
    """The conservative variances of ``closed_form``, by label."""
    return {label: variance for label, (_, variance) in closed_form(summary, scenario).items()}
