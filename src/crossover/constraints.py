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
A restriction depends on the model alone: ``assemble`` shares one
read-only instance per model, holding one record per implemented set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .sequences import TreatmentSequence, _check_lengths, as_sequence, sequence_set

SCENARIOS = ("a", "b", "c")

ROW_REDUCE_TOLERANCE = 1e-10
RANK_TOLERANCE = 1e-8
RESTRICTION_CACHE_SIZE = 8  # models shared; fit-horizon cycles through 5
SHARED_RESTRICTION_BYTES = 2**20  # the most a shared restriction may hold
IMPLEMENTED_SETS_KEPT = 8  # records per restriction, the oldest dropped first


@dataclass(frozen=True)
class CoefficientLayout:
    """Column layout of the stacked coefficient vector over a scope."""

    horizon: int
    scope: tuple[TreatmentSequence, ...]

    def __post_init__(self):
        scope = sequence_set(self.scope, self.horizon)
        if not scope:
            raise ValueError("scope must be nonempty")
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

    def positions(self, sequences: Iterable[TreatmentSequence]) -> list[int]:
        """The scope position of each sequence; KeyError for one outside it."""
        return [self._index[z] for z in sequences]

    def block(self, z: TreatmentSequence | str) -> slice:
        """Column slice of one sequence's T coefficients."""
        i = self._index[as_sequence(z)]
        return slice(i * self.horizon, (i + 1) * self.horizon)

    def labels(self) -> list[tuple[int, TreatmentSequence]]:
        """(period, sequence) pair for every column, in column order."""
        return [(t, z) for z in self.scope for t in range(1, self.horizon + 1)]


@dataclass(frozen=True)
class ClassMap:
    """Assumption classes of a scenario; b and c need a carryover order in [1, T]."""

    horizon: int
    scenario: str
    order: int | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.scenario == "a":
            # no anticipation has no carryover order, whatever was passed
            object.__setattr__(self, "order", None)
        elif self.order is None:
            raise ValueError(f"scenario {self.scenario!r} requires a carryover order")
        elif not 1 <= self.order <= self.horizon:
            raise ValueError(f"carryover order {self.order} outside [1, {self.horizon}]")

    def key(self, period: int, z: TreatmentSequence) -> str:
        """Class key of z's period-t coefficient: the length-t prefix under
        scenario a, the trailing window of length k under b and c."""
        start = 0 if self.scenario == "a" else max(0, period - self.order)
        return z[start:period]

    def ids(self, sequences: Iterable[TreatmentSequence]) -> tuple[list[tuple[int, str]], np.ndarray]:
        """The (period, key) of every class the sequences meet, in sorted
        order, and the (len(sequences), T) class id of each (sequence,
        period) entry, an index into that list.  ValueError names a
        sequence of another length than T or with a letter other than A
        and B."""
        sequences = list(sequences)
        _check_lengths(sequences, self.horizon)
        try:
            letters = np.array(sequences, dtype=f"S{self.horizon}").view("S1").reshape(-1, self.horizon)
        except UnicodeEncodeError:  # a letter outside ASCII
            letters = np.array([[b""]])
        if not ((letters == b"A") | (letters == b"B")).all():
            for z in sequences:  # the first with another letter raises
                as_sequence(z)
        classes: list[tuple[int, str]] = []
        ids = np.empty(letters.shape, dtype=np.intp)
        for t in range(1, self.horizon + 1):
            start = 0 if self.scenario == "a" else max(0, t - self.order)
            # the keys of one period share a length, so byte order is key order
            window = np.ascontiguousarray(letters[:, start:t]).view(f"S{t - start}")[:, 0]
            keys, inverse = np.unique(window, return_inverse=True)
            ids[:, t - 1] = len(classes) + inverse.ravel()
            classes.extend((t, key.decode()) for key in keys.tolist())
        return classes, ids

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
        Z = E D^-1/2 null(K D^-1/2), null(.) being the identity under a, b;
        the restriction keeps the class ids, D^-1/2 and null(K D^-1/2).
        One read-only instance per (map, layout) is shared while it can hold
        at most SHARED_RESTRICTION_BYTES; a larger one is built on each call."""
        # a dense q x q Q on purpose (q at most the keys a period admits), O(p) others
        widths = (t if self.scenario == "a" else min(t, self.order) for t in range(1, self.horizon + 1))
        q = sum(min(len(layout.scope), 2**w) for w in widths)
        held = 8 * (q * q + (3 + IMPLEMENTED_SETS_KEPT) * layout.size)
        return (self._shared if held <= SHARED_RESTRICTION_BYTES else self._build)(layout)

    def _build(self, layout: CoefficientLayout) -> RestrictionMatrix:
        classes, ids = self.ids(layout.scope)
        of_column = ids.ravel()
        sizes = np.bincount(of_column).astype(float)
        # columns class by class, each class's members in scope order; a
        # chain row joins each member to the next, K sits on the first
        by_class = np.argsort(of_column, kind="stable")
        same = of_column[by_class[1:]] == of_column[by_class[:-1]]
        pairs = np.column_stack([by_class[:-1][same], by_class[1:][same]])
        first = by_class[np.concatenate([[True], ~same])]
        cycles = _cycle_rows(classes, self.order) if self.scenario == "c" else np.zeros((0, len(classes)))
        free = _null_space(cycles / np.sqrt(sizes)) if len(cycles) else None
        restriction = RestrictionMatrix.__new__(RestrictionMatrix)
        return restriction._hold(layout, pairs, cycles, first, self.scenario, self.order, of_column, sizes**-0.5, free)

    _shared = functools.lru_cache(maxsize=RESTRICTION_CACHE_SIZE)(_build)


def _null_space(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a nonempty matrix: the right
    singular vectors past its numerical rank, singular values up to
    s_max * max(shape) * eps counting as zero."""
    _, singular, vh = np.linalg.svd(matrix)
    rank = int(np.sum(singular > singular.max() * max(matrix.shape) * np.finfo(float).eps))
    return vh[rank:].T


def numerical_rank(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return 0
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    cutoff = RANK_TOLERANCE * singular[0] * max(matrix.shape)
    return int(np.sum(singular > cutoff))


def _cycle_rows(classes: list[tuple[int, str]], order: int) -> np.ndarray:
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


def row_reduce(rows: np.ndarray) -> np.ndarray:
    """Select a full-row-rank subset of rows spanning the same row space.

    Keeps each row whose distance from the span of the rows kept before it
    exceeds ROW_REDUCE_TOLERANCE * max|rows| (Gram-Schmidt, orthogonalized
    twice); kept rows are original rows, in their original order.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1) if rows.size else rows.reshape(0, 0)
    floor = ROW_REDUCE_TOLERANCE * np.abs(rows).max(initial=0.0)
    kept, span = [], np.zeros((0, rows.shape[1]))
    for i, row in enumerate(rows):
        for _ in range(2):
            row = row - span.T @ (span @ row)
        norm = np.linalg.norm(row)
        if norm > floor:
            kept.append(i)
            span = np.vstack([span, row / norm])
    return rows[kept]


ImplementedSet = NamedTuple("ImplementedSet", [("hit", np.ndarray), ("local", np.ndarray), ("rank", int)])


class RestrictionMatrix:
    """A full-row-rank restriction C with C gamma = 0, plus its provenance.

    C is stored compactly: chain rows as (left, right) column pairs of +1
    and -1, then one row block on given columns (K under scenario c, or
    given rows over all columns).  ``matrix`` builds the dense (m, p) array
    on each read and ``residual`` evaluates max|C v|.

    The orthonormal basis Z of the null space of C (gamma = Z beta) is
    held at class width, Z = E Q with Q = diag(S) N: ``class_ids`` gives
    the class of each of the p columns (E its indicators), ``class_scale``
    is the (q,) vector S = D^-1/2 (D the class sizes; ones for given rows)
    and ``null_basis`` is N: None for the identity under scenarios a and b,
    under c without cycle rows and for zero rows; null(K D^-1/2) under c
    and null(C) for given rows, which are their own classes.  ``class_basis`` builds the dense (q, d)
    Q on each read.  The package never forms the dense p x d array Z.
    A restriction is a shared, read-only value: no array is writeable, no
    attribute can be set, and it keeps the last IMPLEMENTED_SETS_KEPT
    ``ImplementedSet`` records of implemented sequence sets.
    """

    def __init__(self, layout, matrix, scenario=None, carryover_order=None):
        matrix = np.array(matrix, dtype=float)
        p = layout.size
        if matrix.ndim != 2 or matrix.shape[1] != p:
            raise ValueError(f"restriction matrix must be (L, {p}), got {matrix.shape}")
        null = _null_space(matrix) if matrix.shape[0] else None
        rank = 0 if null is None else p - null.shape[1]
        if rank < len(matrix):
            raise ValueError(
                f"restriction rows need full row rank, got rank {rank} for {len(matrix)} rows; "
                "restriction_from_rows row-reduces them"
            )
        no_pairs = np.zeros((0, 2), dtype=np.intp)
        columns = np.arange(p)
        self._hold(layout, no_pairs, matrix, columns, scenario, carryover_order, columns, np.ones(p), null)

    def _hold(self, layout, pairs, rows, columns, scenario, carryover_order, class_ids, class_scale, null_basis) -> RestrictionMatrix:
        for array in (pairs, rows, columns, class_ids, class_scale, null_basis):
            if array is not None:
                array.flags.writeable = False
        vars(self).update(layout=layout, scenario=scenario, carryover_order=carryover_order, class_ids=class_ids)
        vars(self).update(class_scale=class_scale, null_basis=null_basis, _pairs=pairs, _rows=rows, _columns=columns, _sets={})
        return self

    def __setattr__(self, name, *value):
        raise AttributeError(f"a restriction is read-only; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def dimension(self) -> int:
        """d, the number of free coefficients."""
        return len(self.class_scale) if self.null_basis is None else self.null_basis.shape[1]

    @property
    def class_basis(self) -> np.ndarray:
        """Q = diag(S) N as a dense read-only (q, d) array, built on each read."""
        basis = np.diag(self.class_scale) if self.null_basis is None else self.class_scale[:, None] * self.null_basis
        basis.flags.writeable = False
        return basis

    def implemented(self, sequences: tuple[TreatmentSequence, ...]) -> ImplementedSet:
        """The read-only record of an implemented sequence tuple: the sorted
        ids of the classes hit, the (k, T) index of each (sequence, period)
        entry into them, and rank(X'X + C'C) = p - d + rank(Q_hit), as Z_obs
        repeats the rows of Q for the classes hit, whatever the counts.
        With N the identity, rank(Q_hit) is the number of classes hit and no
        SVD is taken."""
        found = self._sets.get(sequences)
        if found is None:
            ids = self.class_ids.reshape(len(self.layout.scope), -1)[self.layout.positions(sequences)]
            hit, local = np.unique(ids, return_inverse=True)
            local = local.reshape(ids.shape)
            hit.flags.writeable = local.flags.writeable = False
            hit_rank = len(hit) if self.null_basis is None else numerical_rank(self.class_basis[hit])
            rank = self.layout.size - self.dimension + hit_rank
            if len(self._sets) >= IMPLEMENTED_SETS_KEPT:
                del self._sets[next(iter(self._sets))]
            found = self._sets[sequences] = ImplementedSet(hit, local, rank)
        return found

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
