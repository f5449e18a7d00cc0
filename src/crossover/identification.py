"""Identifiability checks: the global rank condition and per-mean witnesses.

The regressor block of a sequence z is the T x (T|S|) matrix placing an
identity in z's coefficient block.  All estimands are unbiasedly estimable
when X'X + C'C is full rank, that is, when the rows Z_obs of the null-space
basis Z of C in the implemented sequences' blocks have full column rank;
unit counts play no part.  When it fails, per-mean checkers report which
group means are still reachable: by a shared prefix (no anticipation), by a
shared trailing window (bounded carryover), or through a
difference-in-differences closure (time-invariant effects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .constraints import CoefficientLayout, RestrictionMatrix
from .sequences import CrossoverDesign, TreatmentSequence, as_sequence, subsequence, trailing_window

RANK_TOLERANCE = 1e-8


def regressor_block(layout: CoefficientLayout, z: TreatmentSequence | str) -> np.ndarray:
    """T x (T|S|) regressor matrix shared by every unit assigned to z."""
    block = np.zeros((layout.horizon, layout.size))
    block[:, layout.block(z)] = np.eye(layout.horizon)
    return block


def gram_plus_restriction(design: CrossoverDesign, restriction: RestrictionMatrix) -> np.ndarray:
    """X'X + C'C, using the block structure sum_z N_z X_z'X_z + C'C."""
    layout = restriction.layout
    if layout.horizon != design.horizon or layout.scope != design.scope:
        raise ValueError("restriction layout does not match the design")
    gram = restriction.matrix.T @ restriction.matrix
    for z, n in design.counts.items():
        sl = layout.block(z)
        gram[sl, sl] += n * np.eye(layout.horizon)
    return gram


@dataclass(frozen=True)
class IdentificationCheck:
    identifiable: bool
    rank: int
    dimension: int

    def __str__(self) -> str:
        verdict = "identifiable" if self.identifiable else "not identifiable"
        return f"{verdict} (rank {self.rank} of {self.dimension})"


def numerical_rank(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return 0
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    cutoff = RANK_TOLERANCE * singular[0] * max(matrix.shape)
    return int(np.sum(singular > cutoff))


def is_identifiable(design: CrossoverDesign, restriction: RestrictionMatrix) -> IdentificationCheck:
    """Full rank of X'X + C'C, computed as p - d + rank(Z_obs), means every
    linear estimand of the scoped means admits an unbiased linear estimator."""
    layout = restriction.layout
    if layout.horizon != design.horizon or layout.scope != design.scope:
        raise ValueError("restriction layout does not match the design")
    basis = restriction.basis
    observed = np.vstack([basis[layout.block(z)] for z in design.observed])
    p, d = basis.shape
    rank = p - d + numerical_rank(observed)
    return IdentificationCheck(rank == p, rank, p)


def _normalize_observed(observed) -> tuple[TreatmentSequence, ...]:
    if isinstance(observed, CrossoverDesign):
        return observed.observed
    return tuple(sorted(as_sequence(z) for z in set(observed)))


def mean_witness_no_anticipation(
    target: TreatmentSequence | str, period: int, observed
) -> TreatmentSequence | None:
    """An implemented sequence sharing the target's length-t prefix, if any.

    Under no anticipation the period-t group mean of the witness is
    unbiased for the target's period-t mean.  Prefers the target itself
    when implemented, otherwise the lexicographically first match.
    """
    target = as_sequence(target)
    observed = _normalize_observed(observed)
    want = subsequence(target, 1, period).letters
    if target in observed:
        return target
    for z in observed:
        if subsequence(z, 1, period).letters == want:
            return z
    return None


def mean_witness_carryover(
    target: TreatmentSequence | str, period: int, order: int, observed
) -> TreatmentSequence | None:
    """Witness under bounded carryover of the given order.

    For t <= k the prefix rule applies; for t > k any implemented sequence
    sharing the trailing length-k window works.
    """
    if order < 1:
        raise ValueError(f"carryover order must be >= 1, got {order}")
    if period <= order:
        return mean_witness_no_anticipation(target, period, observed)
    target = as_sequence(target)
    observed = _normalize_observed(observed)
    want = trailing_window(target, period, order).letters
    if target in observed:
        return target
    for z in observed:
        if trailing_window(z, period, order).letters == want:
            return z
    return None


@dataclass(frozen=True)
class MeanTarget:
    """A (period, window-value) mean under the carryover collapse."""

    period: int
    window: str

    def __str__(self) -> str:
        return f"Y_{self.period}({self.window})"


@dataclass(frozen=True)
class WitnessedMean:
    """A mean identified directly by an implemented sequence."""

    target: MeanTarget
    witness: TreatmentSequence

    def describe(self) -> str:
        return f"{self.target} <- group {self.witness}"


@dataclass(frozen=True)
class DifferencedMean:
    """A mean recovered by a difference-in-differences step.

    ``components`` holds derivations of the same window at the other
    period, and of the reference window at both periods:
    Y_t(w) = Y_t(w_ref) + Y_t'(w) - Y_t'(w_ref).
    """

    target: MeanTarget
    reference_window: str
    other_period: int
    components: tuple["Derivation", "Derivation", "Derivation"]

    def describe(self) -> str:
        t, w = self.target.period, self.target.window
        tp, wr = self.other_period, self.reference_window
        return f"{self.target} = Y_{t}({wr}) + Y_{tp}({w}) - Y_{tp}({wr})"


Derivation = Union[WitnessedMean, DifferencedMean]


def _window_values(period: int, order: int) -> list[str]:
    length = min(period, order)
    words = [""]
    for _ in range(length):
        words = [w + letter for w in words for letter in ("A", "B")]
    return words


def time_invariant_closure(
    horizon: int, order: int, observed
) -> dict[MeanTarget, Derivation]:
    """Least fixed point of the identified (period, window) means.

    Seeds every mean reachable by the carryover witness rule, then
    repeatedly applies the difference-in-differences step across period
    pairs t, t' >= k until nothing new is identified.
    """
    if order < 1:
        raise ValueError(f"carryover order must be >= 1, got {order}")
    observed = _normalize_observed(observed)
    identified: dict[MeanTarget, Derivation] = {}
    for t in range(1, horizon + 1):
        for w in _window_values(t, order):
            witness = None
            if t <= order:
                for z in observed:
                    if subsequence(z, 1, t).letters == w:
                        witness = z
                        break
            else:
                for z in observed:
                    if trailing_window(z, t, order).letters == w:
                        witness = z
                        break
            if witness is not None:
                target = MeanTarget(t, w)
                identified[target] = WitnessedMean(target, witness)
    periods = [t for t in range(order, horizon + 1)]
    changed = True
    while changed:
        changed = False
        for t in periods:
            for w in _window_values(t, order):
                target = MeanTarget(t, w)
                if target in identified:
                    continue
                found = None
                for t_prime in periods:
                    if t_prime == t:
                        continue
                    same_other = identified.get(MeanTarget(t_prime, w))
                    if same_other is None:
                        continue
                    for w_ref in _window_values(t, order):
                        if w_ref == w:
                            continue
                        ref_here = identified.get(MeanTarget(t, w_ref))
                        ref_other = identified.get(MeanTarget(t_prime, w_ref))
                        if ref_here is not None and ref_other is not None:
                            found = DifferencedMean(
                                target, w_ref, t_prime, (same_other, ref_here, ref_other)
                            )
                            break
                    if found is not None:
                        break
                if found is not None:
                    identified[target] = found
                    changed = True
    return identified


def mean_derivation_time_invariant(
    target: TreatmentSequence | str, period: int, order: int, observed
) -> Derivation | None:
    """Derivation of the target's period mean under time-invariant effects,
    or None when the closure does not reach it."""
    target = as_sequence(target)
    closure = time_invariant_closure(len(target), order, observed)
    window = trailing_window(target, period, order).letters
    return closure.get(MeanTarget(period, window))
