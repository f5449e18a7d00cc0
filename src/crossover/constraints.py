"""Coefficient restrictions derived from one map of the assumption classes.

The stacked coefficient vector has one entry per (period, sequence) pair,
ordered sequence-major with periods 1..T inside each sequence block.  A
``ClassMap`` groups those entries into classes of equal coefficients: at
period t, sequences sharing the length-t prefix under scenario a (no
anticipation), or the trailing length-k window under scenarios b and c
(carryover of order k).  Under scenario c each class value from period k
on is a period level plus a time-constant window effect.  The map builds
the restriction C and the orthonormal basis Z of its null space from the
classes; only rows supplied from outside the package are row-reduced and
their null space computed numerically.  C is kept compact: the dense
(m, p) array is built only when ``RestrictionMatrix.matrix`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .sequences import TreatmentSequence, as_sequence

SCENARIOS = ("a", "b", "c")

ROW_REDUCE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class CoefficientLayout:
    """Column layout of the stacked coefficient vector over a scope."""

    horizon: int
    scope: tuple[TreatmentSequence, ...]

    def __post_init__(self):
        scope = tuple(sorted({as_sequence(z) for z in self.scope}))
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


Classes = dict[tuple[int, str], list[TreatmentSequence]]


@dataclass(frozen=True)
class ClassMap:
    """Assumption classes of a scenario; b and c need a carryover order in [1, T]."""

    horizon: int
    scenario: str
    order: int | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.scenario != "a":
            if self.order is None:
                raise ValueError(f"scenario {self.scenario!r} requires a carryover order")
            if not 1 <= self.order <= self.horizon:
                raise ValueError(f"carryover order {self.order} outside [1, {self.horizon}]")

    def key(self, period: int, z: TreatmentSequence) -> str:
        """Class key of z's period-t coefficient: the length-t prefix under
        scenario a, the trailing window of length k under b and c."""
        start = 0 if self.scenario == "a" else max(0, period - self.order)
        return z.letters[start:period]

    def classes(self, sequences: Iterable[TreatmentSequence]) -> Classes:
        """Members of every class the sequences meet, keyed (period, key)
        in sorted order; members keep the order they are given in."""
        found: Classes = {}
        for z in sequences:
            for t in range(1, self.horizon + 1):
                found.setdefault((t, self.key(t, z)), []).append(z)
        return dict(sorted(found.items()))

    def generators(self, period: int, key: str) -> tuple[tuple, ...]:
        """Class-level generators whose sum is the value of one class: the
        class itself, or under scenario c from period k on a period level
        plus a window effect."""
        if self.scenario == "c" and period >= self.order:
            return (("level", period), ("effect", key))
        return (("class", period, key),)

    def restriction(self, layout: CoefficientLayout) -> RestrictionMatrix:
        """Full-row-rank restriction C over a layout, with the orthonormal
        basis Z of its null space.  C chains the members of each class, plus
        under scenario c the class-level cycle rows K on each class's first
        column.  With E the class indicators and D the class sizes,
        Z = E D^-1/2 null(K D^-1/2), null(.) being the identity under a, b."""
        classes = self.classes(layout.scope)
        sizes = np.array([len(members) for members in classes.values()], dtype=float)
        of_column = np.empty(layout.size, dtype=np.intp)
        for j, ((t, _), members) in enumerate(classes.items()):
            of_column[[layout.column(t, z) for z in members]] = j
        first = [layout.column(t, members[0]) for (t, _), members in classes.items()]
        if self.scenario != "c":
            cycles, basis = np.zeros((0, len(classes))), np.diag(sizes**-0.5)
        else:
            cycles = _cycle_rows(classes, self.order)
            free = _null_space(cycles / np.sqrt(sizes)) if len(cycles) else np.eye(len(classes))
            basis = free / np.sqrt(sizes)[:, None]
        restriction = RestrictionMatrix.__new__(RestrictionMatrix)
        pairs = _chain_pairs(layout, classes)
        return restriction._hold(layout, pairs, cycles, first, self.scenario, self.order, basis[of_column])


def _null_space(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a nonempty matrix: the right
    singular vectors past its numerical rank, singular values up to
    s_max * max(shape) * eps counting as zero."""
    _, singular, vh = np.linalg.svd(matrix)
    rank = int(np.sum(singular > singular.max() * max(matrix.shape) * np.finfo(float).eps))
    return vh[rank:].T


def _chain_pairs(layout: CoefficientLayout, classes: Classes) -> np.ndarray:
    """(left, right) columns of the m - 1 rows per class of m members that
    equate consecutive members."""
    pairs = [
        (layout.column(t, left), layout.column(t, right))
        for (t, _), members in classes.items()
        for left, right in zip(members, members[1:])
    ]
    return np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)


def _cycle_rows(classes: Classes, order: int) -> np.ndarray:
    """K: one row over the classes per independent cycle of the graph
    joining each period t >= k to every window w seen at it, by one edge
    per class.  path[n] sums a breadth-first forest's edges from the root
    to n with alternating signs, so on values level_t + effect_w it
    telescopes to the value of n plus or minus the root's; an edge off the
    forest minus path[t] and path[w] is the cycle it closes.
    """
    edges = dict(zip(map(frozenset, classes), np.eye(len(classes))))
    neighbours: dict[int | str, list[int | str]] = {}
    for t, w in classes:
        if t >= order:
            neighbours.setdefault(t, []).append(w)
            neighbours.setdefault(w, []).append(t)
    path: dict[int | str, np.ndarray] = {}
    for root in neighbours:
        if root not in path:
            path[root] = np.zeros(len(classes))
            queue = [root]
            for node in queue:
                for other in neighbours[node]:
                    if other not in path:
                        path[other] = edges[frozenset((node, other))] - path[node]
                        queue.append(other)
    rows = []
    for t, w in classes:
        if t >= order:
            row = edges[frozenset((t, w))] - path[t] - path[w]
            if row.any():  # the row of a forest edge is zero
                rows.append(row)
    return np.array(rows).reshape(len(rows), len(classes))


def rows_no_anticipation(layout: CoefficientLayout) -> np.ndarray:
    """Rows equating period-t coefficients of sequences sharing a length-t prefix."""
    return ClassMap(layout.horizon, "a").restriction(layout).matrix


def rows_no_carryover(layout: CoefficientLayout, order: int) -> np.ndarray:
    """Rows equating period-t coefficients (t >= k) of sequences sharing the
    trailing length-k window."""
    restriction = ClassMap(layout.horizon, "b", order).restriction(layout)
    return restriction.matrix[restriction._pairs[:, 0] % layout.horizon + 1 >= order]


def rows_time_invariant(layout: CoefficientLayout, order: int) -> np.ndarray:
    """Rows tying window contrasts together across periods t >= k, one per
    independent cycle of the graph joining each period to the windows seen
    at it.  With the carryover rows they span the time-invariance
    restriction on any scope."""
    restriction = ClassMap(layout.horizon, "c", order).restriction(layout)
    return restriction.matrix[len(restriction._pairs) :]


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
    # numpy has no pivoted QR; importing scipy here keeps it out of `import crossover`
    import scipy.linalg

    _, r, pivots = scipy.linalg.qr(rows.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > ROW_REDUCE_TOLERANCE * scale))
    keep = sorted(pivots[:rank])
    return rows[keep]


class RestrictionMatrix:
    """A full-row-rank restriction C with C gamma = 0, plus its provenance.

    C is stored compactly: chain rows as (left, right) column pairs of +1
    and -1, then one row block on given columns (K under scenario c, or
    given rows over all columns).  ``matrix`` builds the dense (m, p) array
    on each read and ``residual`` evaluates max|C v|.  ``basis`` is a p x d
    orthonormal basis Z of the null space of C (gamma = Z beta), computed
    from given rows by default.  ``verdicts`` holds the identification
    verdict for each implemented sequence set checked against Z, filled in
    by ``identification.is_identifiable``.
    """

    def __init__(self, layout, matrix, scenario=None, carryover_order=None, basis=None):
        matrix = np.asarray(matrix, dtype=float)
        p = layout.size
        if matrix.ndim != 2 or matrix.shape[1] != p:
            raise ValueError(f"restriction matrix must be (L, {p}), got {matrix.shape}")
        if basis is None:
            basis = _null_space(matrix) if matrix.shape[0] else np.eye(p)
        elif basis.shape != (p, p - matrix.shape[0]):
            raise ValueError(f"basis must be ({p}, {p - matrix.shape[0]}), got {basis.shape}")
        no_pairs = np.zeros((0, 2), dtype=np.intp)
        self._hold(layout, no_pairs, matrix, np.arange(p), scenario, carryover_order, basis)

    def _hold(self, layout, pairs, rows, columns, scenario, carryover_order, basis) -> RestrictionMatrix:
        self.layout, self._pairs, self._rows, self._columns = layout, pairs, rows, columns
        self.scenario, self.carryover_order, self.basis, self.verdicts = scenario, carryover_order, basis, {}
        return self

    @property
    def n_rows(self) -> int:
        return len(self._pairs) + len(self._rows)

    @property
    def matrix(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.layout.size))
        dense[np.arange(len(self._pairs))[:, None], self._pairs] = (1.0, -1.0)
        dense[len(self._pairs) :, self._columns] = self._rows
        return dense

    def residual(self, v: np.ndarray) -> float:
        """max |C v|, 0 for a zero-row restriction."""
        chain = v[self._pairs[:, 0]] - v[self._pairs[:, 1]]
        return float(np.abs(np.concatenate([chain, self._rows @ v[self._columns]])).max(initial=0.0))


def assemble(
    scenario: str,
    horizon: int,
    scope: Iterable[TreatmentSequence | str],
    carryover_order: int | None = None,
) -> RestrictionMatrix:
    """The scenario's restriction C and null-space basis Z over a scope.

    Scenario a equates coefficients sharing a prefix; b those sharing a
    trailing window; c adds time-invariant window effects.  Scenarios b
    and c require the carryover order.  An empty row set is legal and
    yields a zero-row restriction (unrestricted regression).
    """
    return ClassMap(horizon, scenario, carryover_order).restriction(CoefficientLayout(horizon, tuple(scope)))


def restriction_from_rows(
    layout: CoefficientLayout, rows: np.ndarray, scenario: str | None = None
) -> RestrictionMatrix:
    """Wrap user-supplied raw rows after row reduction."""
    return RestrictionMatrix(layout, row_reduce(np.atleast_2d(np.asarray(rows, dtype=float))), scenario)
