"""Linear causal estimands over per-sequence mean outcome vectors.

An estimand is a K-vector of linear functionals of the average potential
outcome vectors: theta = sum_z W(z) Ybar(z), with one K x T coefficient
matrix per sequence in scope.  Builders construct the named instantaneous
and carryover contrasts; stack and marginal combine specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DegenerateCovarianceError
from .sequences import TreatmentSequence, as_sequence, sequence_set

__all__ = [
    "EstimandSpec",
    "PotentialOutcomeTable",
    "instantaneous_effect",
    "carryover_effect",
    "marginal_effect",
    "stack",
    "all_instantaneous_effects",
    "true_value",
    "individual_effects",
    "individual_effect_covariance",
]


@dataclass(frozen=True)
class EstimandSpec:
    """Coefficient matrices W(z) defining theta = sum_z W(z) Ybar(z).

    Only nonzero W(z) need to be stored; ``weight`` returns zeros for the
    rest of the scope.  All stored matrices share the K x T shape.
    """

    horizon: int
    scope: tuple[TreatmentSequence, ...]
    weights: Mapping[TreatmentSequence, np.ndarray]
    labels: tuple[str, ...]

    def __post_init__(self):
        scope = sequence_set(self.scope, self.horizon)
        k = len(self.labels)
        if k < 1:
            raise ValueError("estimand needs at least one row label")
        weights = {}
        scope_set = set(scope)
        for z in sequence_set(self.weights, self.horizon):
            if z not in scope_set:
                raise ValueError(f"weight given for {z} outside the scope")
            w = np.asarray(self.weights[z], dtype=float)
            if w.shape != (k, self.horizon):
                raise ValueError(
                    f"W({z}) has shape {w.shape}, expected {(k, self.horizon)}"
                )
            if not np.all(np.isfinite(w)):
                raise ValueError(f"W({z}) has a non-finite entry")
            weights[z] = w
        if not any(np.any(w) for w in weights.values()):
            raise ValueError("all coefficient matrices are zero")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def weight(self, z: TreatmentSequence | str) -> np.ndarray:
        z = as_sequence(z)
        w = self.weights.get(z)
        if w is not None:
            return w
        return np.zeros((self.dimension, self.horizon))


def _linear_combination(
    specs: Sequence[EstimandSpec], coefficients: Sequence[float], labels: Sequence[str]
) -> EstimandSpec:
    first = specs[0]
    for spec in specs[1:]:
        if spec.horizon != first.horizon or spec.scope != first.scope:
            raise ValueError("specs must share horizon and scope")
        if spec.dimension != first.dimension:
            raise ValueError("specs must share dimension")
    combined: dict[TreatmentSequence, np.ndarray] = {}
    for spec, a in zip(specs, coefficients):
        for z, w in spec.weights.items():
            combined[z] = combined.get(z, 0.0) + a * w
    return EstimandSpec(first.horizon, first.scope, combined, tuple(labels))


def _arm_contrast(
    scope: tuple[TreatmentSequence, ...], period: int, before: str, after: str, label: str
) -> EstimandSpec:
    """Contrast of period-t means between the scope sequences starting with
    before + A + after and those starting with before + B + after, each arm
    averaged uniformly."""
    horizon = len(scope[0])
    weights: dict[TreatmentSequence, np.ndarray] = {}
    for letter, sign in (("A", 1.0), ("B", -1.0)):
        word = before + letter + after
        matches = [z for z in scope if z.startswith(word)]
        if not matches:
            raise ValueError(f"scope has no completion of {word}")
        for z in matches:
            w = np.zeros((1, horizon))
            w[0, period - 1] = sign / len(matches)
            weights[z] = w
    return EstimandSpec(horizon, scope, weights, (label,))


def instantaneous_effect(
    period: int,
    history: TreatmentSequence | str = "",
    scope: Iterable[TreatmentSequence | str] = (),
) -> EstimandSpec:
    """Contrast of period-t means that differ only in the period-t treatment.

    The contrast fixes the first t-1 treatments to ``history`` and averages
    uniformly over all scope sequences completing each arm, which
    canonicalizes the many equivalent weightings.
    """
    scope_t = sequence_set(scope)
    if not scope_t:
        raise ValueError("scope must be nonempty")
    horizon = len(scope_t[0])
    history = as_sequence(history)
    if not 1 <= period <= horizon:
        raise ValueError(f"period {period} outside [1, {horizon}]")
    if len(history) != period - 1:
        raise ValueError(f"history must have length {period - 1}, got {len(history)}")
    label = f"tau_{period}" if period == 1 else f"tau_{period}({history})"
    return _arm_contrast(scope_t, period, history, "", label)


def carryover_effect(
    period: int,
    order: int,
    prefix: TreatmentSequence | str = "",
    suffix: TreatmentSequence | str = "",
    scope: Iterable[TreatmentSequence | str] = (),
) -> EstimandSpec:
    """Contrast of period-t means that differ only in the treatment given
    ``order`` periods earlier, holding the rest of the first t treatments
    fixed at ``prefix`` and ``suffix``."""
    if order == 0:
        return instantaneous_effect(period, prefix, scope)
    scope_t = sequence_set(scope)
    if not scope_t:
        raise ValueError("scope must be nonempty")
    horizon = len(scope_t[0])
    prefix = as_sequence(prefix)
    suffix = as_sequence(suffix)
    if not 1 <= order < period <= horizon:
        raise ValueError(f"need 1 <= order < period <= horizon, got order={order}, period={period}")
    if len(prefix) != period - order - 1:
        raise ValueError(f"prefix must have length {period - order - 1}, got {len(prefix)}")
    if len(suffix) != order:
        raise ValueError(f"suffix must have length {order}, got {len(suffix)}")
    args = ",".join(s for s in (prefix, suffix) if s)
    return _arm_contrast(scope_t, period, prefix, suffix, f"tau_{period}^{order}({args})")


def marginal_effect(
    specs: Sequence[EstimandSpec],
    weights: Sequence[float] | None = None,
    labels: Sequence[str] | None = None,
) -> EstimandSpec:
    """Convex combination of equally shaped specs with probability weights."""
    if not specs:
        raise ValueError("need at least one spec")
    if weights is None:
        weights = [1.0 / len(specs)] * len(specs)
    if len(weights) != len(specs):
        raise ValueError("one weight per spec required")
    weights = [float(w) for w in weights]
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"weights must be probabilities summing to 1, got {weights}")
    if labels is None:
        labels = tuple(
            "marginal(" + ",".join(spec.labels[i] for spec in specs) + ")"
            for i in range(specs[0].dimension)
        )
    return _linear_combination(specs, weights, labels)


def stack(specs: Sequence[EstimandSpec]) -> EstimandSpec:
    """Concatenate the rows of several specs into one K = sum K_j spec."""
    if not specs:
        raise ValueError("need at least one spec")
    first = specs[0]
    if len(specs) == 1:
        return first
    for spec in specs[1:]:
        if spec.horizon != first.horizon or spec.scope != first.scope:
            raise ValueError("specs must share horizon and scope")
    labels = tuple(label for spec in specs for label in spec.labels)
    weights: dict[TreatmentSequence, np.ndarray] = {}
    touched = set()
    for spec in specs:
        touched.update(spec.weights.keys())
    for z in touched:
        weights[z] = np.vstack([spec.weight(z) for spec in specs])
    return EstimandSpec(first.horizon, first.scope, weights, labels)


def all_instantaneous_effects(
    period: int, scope: Iterable[TreatmentSequence | str]
) -> list[EstimandSpec]:
    """The 2^(t-1) conditional contrasts at a period, one per history."""
    scope_t = sequence_set(scope)
    histories = [""]
    for _ in range(period - 1):
        histories = [h + letter for h in histories for letter in ("A", "B")]
    return [instantaneous_effect(period, h, scope_t) for h in histories]


@dataclass(frozen=True)
class PotentialOutcomeTable:
    """Per-unit outcome vectors under every sequence in scope.

    ``outcomes`` maps each sequence to an (N, T) array whose row i is the
    outcome vector unit i would show under that sequence.
    """

    horizon: int
    outcomes: Mapping[TreatmentSequence, np.ndarray]

    def __post_init__(self):
        outcomes = {}
        n_units = None
        for z in sequence_set(self.outcomes, self.horizon):
            y = np.asarray(self.outcomes[z], dtype=float)
            if y.ndim != 2 or y.shape[1] != self.horizon:
                raise ValueError(f"outcomes for {z} must be (N, {self.horizon}), got {y.shape}")
            if not np.all(np.isfinite(y)):
                raise ValueError(f"outcomes for {z} contain non-finite values")
            if n_units is None:
                n_units = y.shape[0]
            elif y.shape[0] != n_units:
                raise ValueError("all sequences must cover the same units")
            outcomes[z] = y
        if not outcomes:
            raise ValueError("table is empty")
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def scope(self) -> tuple[TreatmentSequence, ...]:
        return tuple(self.outcomes.keys())

    @property
    def n_units(self) -> int:
        return next(iter(self.outcomes.values())).shape[0]

    def mean_vector(self, z: TreatmentSequence | str) -> np.ndarray:
        return self.outcomes[as_sequence(z)].mean(axis=0)

    def covariance(self, z: TreatmentSequence | str) -> np.ndarray:
        """Finite-population covariance of Y_i(z), divisor N - 1."""
        y = self.outcomes[as_sequence(z)]
        if y.shape[0] < 2:
            raise DegenerateCovarianceError("covariance needs at least 2 units")
        centered = y - y.mean(axis=0)
        return centered.T @ centered / (y.shape[0] - 1)


def true_value(spec: EstimandSpec, table: PotentialOutcomeTable) -> np.ndarray:
    """theta = sum_z W(z) mean_z over the table."""
    total = np.zeros(spec.dimension)
    for z, w in spec.weights.items():
        total += w @ table.mean_vector(z)
    return total


def individual_effects(spec: EstimandSpec, table: PotentialOutcomeTable) -> np.ndarray:
    """(N, K) array of per-unit effects theta_i = sum_z W(z) Y_i(z)."""
    total = np.zeros((table.n_units, spec.dimension))
    for z, w in spec.weights.items():
        total += table.outcomes[z] @ w.T
    return total


def individual_effect_covariance(
    spec: EstimandSpec, table: PotentialOutcomeTable
) -> np.ndarray:
    """K x K covariance of the per-unit effects, divisor N - 1."""
    if table.n_units < 2:
        raise DegenerateCovarianceError("individual-effect covariance needs at least 2 units")
    theta = individual_effects(spec, table)
    centered = theta - theta.mean(axis=0)
    return centered.T @ centered / (table.n_units - 1)
