"""Identifiability checks: the global rank condition and per-mean witnesses.

A unit of sequence z observes z's own T coefficients, so X'X is block
diagonal with N_z I_T on the coefficient block of each implemented z and
zero elsewhere.  All estimands are unbiasedly estimable when X'X + C'C is
full rank, that is, when the rows Z_obs of the null-space basis Z of C in
the implemented sequences' blocks have full column rank; unit counts play
no part; the rank is read from ``RestrictionMatrix.implemented``.  When
it fails, per-mean checkers report which group means are still
reachable: through an implemented sequence of the mean's class in
``constraints.ClassMap`` (shared prefix or trailing window), or through
a difference-in-differences closure (time-invariant effects).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constraints import ClassMap, RestrictionMatrix
from .sequences import CrossoverDesign, TreatmentSequence, as_sequence, sequence_set


@dataclass(frozen=True)
class IdentificationCheck:
    identifiable: bool
    rank: int
    dimension: int

    def __str__(self) -> str:
        verdict = "identifiable" if self.identifiable else "not identifiable"
        return f"{verdict} (rank {self.rank} of {self.dimension})"


def is_identifiable(design: CrossoverDesign, restriction: RestrictionMatrix) -> IdentificationCheck:
    """Full rank of X'X + C'C, computed as p - d + rank(Z_obs), means every
    linear estimand of the scoped means admits an unbiased linear estimator.
    With Z = E Q, rank(Z_obs) is the rank of the rows of Q for the classes
    that the implemented sequences hit, at most q x d.

    The verdict depends on the implemented sequences, not their counts: it
    is read from the restriction's record of the implemented set."""
    layout = restriction.layout
    if layout.horizon != design.horizon or layout.scope != design.scope:
        raise ValueError("restriction layout does not match the design")
    rank = restriction.implemented(design.observed).rank
    return IdentificationCheck(rank == layout.size, rank, layout.size)


def _normalize_observed(observed):
    return observed.observed if isinstance(observed, CrossoverDesign) else observed


def _witness(
    classes: ClassMap, target: TreatmentSequence | str, period: int, observed
) -> TreatmentSequence | None:
    """The target itself if it is implemented, else the first implemented
    sequence in the target's class at the period."""
    target = as_sequence(target)
    if not 1 <= period <= len(target):
        raise IndexError(f"period {period} outside [1, {len(target)}]")
    observed = sequence_set(_normalize_observed(observed), len(target))
    if target in observed:
        return target
    want = classes.key(period, target)
    return next((z for z in observed if classes.key(period, z) == want), None)


def mean_witness_no_anticipation(
    target: TreatmentSequence | str, period: int, observed
) -> TreatmentSequence | None:
    """An implemented sequence sharing the target's length-t prefix, if any.

    Under no anticipation the period-t group mean of the witness is
    unbiased for the target's period-t mean.  Prefers the target itself
    when implemented, otherwise the lexicographically first match.
    """
    return _witness(ClassMap(len(target), "a"), target, period, observed)


def mean_witness_carryover(
    target: TreatmentSequence | str, period: int, order: int, observed
) -> TreatmentSequence | None:
    """Witness under bounded carryover of the given order.

    For t <= k the prefix rule applies; for t > k any implemented sequence
    sharing the trailing length-k window works.
    """
    return _witness(ClassMap(len(target), "b", order), target, period, observed)


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


def _difference_step(
    identified: dict[MeanTarget, Derivation], target: MeanTarget, periods, windows
) -> DifferencedMean | None:
    """The first difference-in-differences derivation of the target from
    identified means, Y_t(w) = Y_t(w_ref) + Y_t'(w) - Y_t'(w_ref), if any."""
    t, w = target.period, target.window
    for t_prime, w_ref in itertools.product(periods, windows):
        parts = (
            identified.get(MeanTarget(t_prime, w)),
            identified.get(MeanTarget(t, w_ref)),
            identified.get(MeanTarget(t_prime, w_ref)),
        )
        if t_prime != t and w_ref != w and all(part is not None for part in parts):
            return DifferencedMean(target, w_ref, t_prime, parts)
    return None


def time_invariant_closure(
    horizon: int, order: int, observed
) -> dict[MeanTarget, Derivation]:
    """Least fixed point of the identified (period, window) means.

    Seeds every mean whose class holds an implemented sequence, then
    repeatedly applies the difference-in-differences step across period
    pairs t, t' >= k until nothing new is identified.
    """
    sequences = sequence_set(_normalize_observed(observed), horizon)
    seeds, ids = ClassMap(horizon, "c", order).ids(sequences)
    # a class's first entry in row-major order lies in its first member's row
    first = np.unique(ids, return_index=True)[1] // horizon
    identified: dict[MeanTarget, Derivation] = {}
    for (t, w), i in zip(seeds, first):
        target = MeanTarget(t, w)
        identified[target] = WitnessedMean(target, sequences[i])
    periods = range(order, horizon + 1)
    # a window never seen from period k on can be neither derived nor a
    # reference, so the windows seen there are the only candidates
    windows = sorted({w for t, w in seeds if t >= order})
    changed = True
    while changed:
        changed = False
        for target in (MeanTarget(t, w) for t in periods for w in windows):
            if target not in identified:
                found = _difference_step(identified, target, periods, windows)
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
    return closure.get(MeanTarget(period, ClassMap(len(target), "c", order).key(period, target)))
