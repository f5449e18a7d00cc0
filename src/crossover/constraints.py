"""Linear coefficient restrictions encoding the causal assumptions.

The stacked coefficient vector has one entry per (period, sequence) pair,
ordered sequence-major with periods 1..T inside each sequence block.  Each
assumption becomes a set of equality rows on that vector:

* no anticipation: coefficients sharing a length-t prefix are equal;
* carryover order k: for t >= k, coefficients sharing the trailing
  length-k window are equal;
* time invariance: window contrasts are constant across periods t' > t >= k.

Scenario a stacks the first set, b the first two, c all three.  The raw
rows are +1/-1 contrasts; assembly row-reduces them to a full-row-rank
subset spanning the same row space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .sequences import TreatmentSequence, as_sequence, subsequence, trailing_window

SCENARIOS = ("a", "b", "c")

ROW_REDUCE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class CoefficientLayout:
    """Column layout of the stacked coefficient vector over a scope."""

    horizon: int
    scope: tuple[TreatmentSequence, ...]

    def __post_init__(self):
        scope = tuple(sorted(as_sequence(z) for z in set(self.scope)))
        if not scope:
            raise ValueError("scope must be nonempty")
        for z in scope:
            if len(z) != self.horizon:
                raise ValueError(f"scope sequence {z} has length {len(z)}, expected {self.horizon}")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "_index", {z: i for i, z in enumerate(scope)})

    @property
    def size(self) -> int:
        return self.horizon * len(self.scope)

    def column(self, period: int, z: TreatmentSequence | str) -> int:
        z = as_sequence(z)
        if not 1 <= period <= self.horizon:
            raise ValueError(f"period {period} outside [1, {self.horizon}]")
        return self._index[z] * self.horizon + (period - 1)

    def block(self, z: TreatmentSequence | str) -> slice:
        """Column slice of one sequence's T coefficients."""
        i = self._index[as_sequence(z)]
        return slice(i * self.horizon, (i + 1) * self.horizon)

    def labels(self) -> list[tuple[int, TreatmentSequence]]:
        """(period, sequence) pair for every column, in column order."""
        return [(t, z) for z in self.scope for t in range(1, self.horizon + 1)]


def _chain_rows(layout: CoefficientLayout, period: int, members: Sequence[TreatmentSequence]) -> list[np.ndarray]:
    """m - 1 rows equating consecutive class members at one period."""
    rows = []
    for left, right in zip(members, members[1:]):
        row = np.zeros(layout.size)
        row[layout.column(period, left)] = 1.0
        row[layout.column(period, right)] = -1.0
        rows.append(row)
    return rows


def _classes(
    scope: Sequence[TreatmentSequence], key
) -> dict[str, list[TreatmentSequence]]:
    grouped: dict[str, list[TreatmentSequence]] = {}
    for z in scope:
        grouped.setdefault(key(z), []).append(z)
    return {k: sorted(v) for k, v in sorted(grouped.items())}


def rows_no_anticipation(layout: CoefficientLayout) -> np.ndarray:
    """Rows equating period-t coefficients of sequences sharing a length-t prefix."""
    rows: list[np.ndarray] = []
    for t in range(1, layout.horizon + 1):
        classes = _classes(layout.scope, lambda z: subsequence(z, 1, t).letters)
        for members in classes.values():
            rows.extend(_chain_rows(layout, t, members))
    return np.array(rows) if rows else np.zeros((0, layout.size))


def rows_no_carryover(layout: CoefficientLayout, order: int) -> np.ndarray:
    """Rows equating period-t coefficients (t >= k) of sequences sharing the
    trailing length-k window."""
    if not 1 <= order <= layout.horizon:
        raise ValueError(f"carryover order {order} outside [1, {layout.horizon}]")
    rows: list[np.ndarray] = []
    for t in range(order, layout.horizon + 1):
        classes = _classes(layout.scope, lambda z: trailing_window(z, t, order).letters)
        for members in classes.values():
            rows.extend(_chain_rows(layout, t, members))
    return np.array(rows) if rows else np.zeros((0, layout.size))


def rows_time_invariant(layout: CoefficientLayout, order: int) -> np.ndarray:
    """Rows equating window contrasts across period pairs t < t' (both >= k).

    For each period pair and each consecutive pair of window values present
    at both periods, one row encodes
    gamma_{t, rep_t(w)} - gamma_{t, rep_t(w')} - gamma_{t', rep_t'(w)}
    + gamma_{t', rep_t'(w')} = 0 using lexicographically first class
    representatives.  Together with the carryover rows these span the full
    time-invariance restriction.
    """
    if not 1 <= order <= layout.horizon:
        raise ValueError(f"carryover order {order} outside [1, {layout.horizon}]")
    # representative sequence of each window value at each period >= k
    reps: dict[int, dict[str, TreatmentSequence]] = {}
    for t in range(order, layout.horizon + 1):
        classes = _classes(layout.scope, lambda z: trailing_window(z, t, order).letters)
        reps[t] = {w: members[0] for w, members in classes.items()}
    rows: list[np.ndarray] = []
    periods = sorted(reps)
    for i, t in enumerate(periods):
        for t_prime in periods[i + 1 :]:
            shared = sorted(set(reps[t]) & set(reps[t_prime]))
            for w, w_prime in zip(shared, shared[1:]):
                row = np.zeros(layout.size)
                row[layout.column(t, reps[t][w])] += 1.0
                row[layout.column(t, reps[t][w_prime])] -= 1.0
                row[layout.column(t_prime, reps[t_prime][w])] -= 1.0
                row[layout.column(t_prime, reps[t_prime][w_prime])] += 1.0
                rows.append(row)
    return np.array(rows) if rows else np.zeros((0, layout.size))


def row_reduce(rows: np.ndarray) -> np.ndarray:
    """Select a full-row-rank subset of rows spanning the same row space.

    Uses rank-revealing QR with column pivoting on the transpose; kept rows
    are original rows, in their original order.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1) if rows.size else rows.reshape(0, 0)
    if rows.shape[0] == 0:
        return rows
    scale = np.abs(rows).max()
    if scale == 0.0:
        return rows[:0]
    _, r, pivots = scipy.linalg.qr(rows.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > ROW_REDUCE_TOLERANCE * scale))
    keep = sorted(pivots[:rank])
    return rows[keep]


@dataclass(frozen=True)
class RestrictionMatrix:
    """A full-row-rank restriction C with C gamma = 0, plus its provenance."""

    layout: CoefficientLayout
    matrix: np.ndarray
    scenario: str | None = None
    carryover_order: int | None = None

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.layout.size:
            raise ValueError(
                f"restriction matrix must be (L, {self.layout.size}), got {matrix.shape}"
            )
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def basis(self) -> np.ndarray:
        """p x d orthonormal basis Z of the null space of C, so that every
        restricted coefficient vector is gamma = Z beta."""
        if self.n_rows == 0:
            return np.eye(self.layout.size)
        return scipy.linalg.null_space(self.matrix)


def assemble(
    scenario: str,
    horizon: int,
    scope: Iterable[TreatmentSequence | str],
    carryover_order: int | None = None,
) -> RestrictionMatrix:
    """Stack the scenario's constraint rows and reduce to full row rank.

    Scenario a uses the no-anticipation rows alone; b adds the carryover
    rows; c adds the time-invariance rows.  Scenarios b and c require the
    carryover order.  An empty row set is legal and yields a zero-row
    restriction (unrestricted regression).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    layout = CoefficientLayout(horizon, tuple(as_sequence(z) for z in scope))
    blocks = [rows_no_anticipation(layout)]
    if scenario in ("b", "c"):
        if carryover_order is None:
            raise ValueError(f"scenario {scenario!r} requires a carryover order")
        blocks.append(rows_no_carryover(layout, carryover_order))
    if scenario == "c":
        blocks.append(rows_time_invariant(layout, carryover_order))
    raw = np.vstack(blocks)
    reduced = row_reduce(raw)
    return RestrictionMatrix(layout, reduced, scenario, carryover_order)


def restriction_from_rows(
    layout: CoefficientLayout, rows: np.ndarray, scenario: str | None = None
) -> RestrictionMatrix:
    """Wrap user-supplied raw rows after row reduction."""
    return RestrictionMatrix(layout, row_reduce(np.atleast_2d(np.asarray(rows, dtype=float))), scenario)
