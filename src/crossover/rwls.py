"""Restricted weighted least squares estimation and EHW inference.

The engine consumes per-sequence counts, means and centered cross-products,
per-sequence weight matrices, and a restriction matrix C, and solves the
restricted problem in the null space of C (Bjorck, Numerical Methods for
Least Squares Problems, 1996).  The orthonormal null-space basis is kept at
class width, Z = E Q (``constraints.RestrictionMatrix``): E maps each of the
p coefficients to its assumption class and Q is q x d.  With Q_h the rows
of Q for the h classes the implemented sequences hit, E_z the T x h
indicators of z's periods among them, W_z = N_z Omega_z^-1 and Ybar_z, R_z
the mean and N_z x T residuals of z, summing over the implemented sequences,

    A = sum_z E_z' W_z E_z,    M = Q_h' A Q_h = V Lambda V',
    M^-1 = H H',    H = V Lambda^-1/2,
    beta = M^-1 Q_h' sum_z E_z' W_z Ybar_z,    gamma = E Q beta,
    R_z'R_z = cross_z + N_z delta_z delta_z',    delta_z = Ybar_z - gamma_z,
    meat = Q_h' (sum_z E_z' Omega_z^-1 R_z'R_z Omega_z^-1 E_z) Q_h,
    Cov(B gamma-hat) = (BZ) M^-1 meat M^-1 (BZ)',    BZ = (B E) Q.

A and the class-width meat are each one ``bincount`` scatter over the class
ids.  The meat reads the dataset's moments alone: no pass over the units.
One symmetric eigendecomposition of the d x d matrix M checks that it is
positive definite, gives cond(M) = lambda_max / lambda_min, and gives the
whitener H, so every product with M^-1 (the solve, the sandwich and every
estimand) is two matrix products; the module forms neither the p x d
basis Z nor any p x p matrix.  The exact randomization variance of a
fixed-weight fit is the same sandwich, its meat scattered from the table's
covariances N_z S2(z) in place of R_z'R_z.

Omega_z is a WeightModel, a (k, T, T) stack with its inverses: a user's,
or sample covariances or entries pooled by ClassMap class ids, built from
the dataset's moments (per-sequence counts, means and R_z'R_z), repaired
and inverted once and not checked again.

One fit plan, built once per design, restriction and weight choice, holds
what every fit of them shares: the identification verdict, the class index
of the implemented sequences (the counts, Q_h and each entry's class) and
the weight rule, a model's inverses gathered from its stack or the rule
building sample or pooled covariances after count checks that read no
data.  Its solve and meat accept leading axes; a single fit is the plan
applied to one dataset's moments.  ``RwlsFit`` keeps the plan for the
sandwich and G_z.  ``StackedFit`` is the plan applied to the moments of a
(C, N, T) stack of datasets of one design, with the same per-item array
operations, so each replication's results are bit-identical to its own fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import compress
from statistics import NormalDist
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .constraints import ClassMap, CoefficientLayout, RestrictionMatrix, assemble
from .errors import (
    ConditioningError,
    DegenerateCovarianceError,
    MissingSequenceError,
    NotIdentifiableError,
)
from .estimands import EstimandSpec, PotentialOutcomeTable, individual_effect_covariance
from .identification import is_identifiable
from .sequences import CrossoverDesign, TreatmentSequence, as_sequence, sequence_set

CONDITION_WARNING_THRESHOLD = 1e12
RESTRICTION_TOLERANCE = 1e-9
# rows of B @ Z below this relative size are exact zeroes of the
# restricted model (the functional lies in the restriction span)
ZERO_FUNCTIONAL_TOLERANCE = 1e-12


class Moments(NamedTuple):
    """Per-sequence count, mean and centered cross-product R_z'R_z of a
    dataset, stacked in code order: (k,), (..., k, T) and (..., k, T, T)
    arrays, the leading axes running over a stack of datasets."""

    counts: np.ndarray
    means: np.ndarray
    cross: np.ndarray


@dataclass(frozen=True)
class ObservedDataset:
    """Observed outcomes with one assigned sequence per unit.

    ``assignments`` is given either as one sequence (or word) per unit or
    as an integer code vector, code ``i`` standing for
    ``design.observed[i]``.  Validation runs once, at construction: the
    outcome shape, finiteness, and per-sequence counts against the design.
    Afterwards ``assignments`` holds the sequences, ``codes`` the integer
    codes, and the per-sequence unit indices are computed once for every
    later ``group_indices`` call.  ``moments`` is computed on first use.
    """

    design: CrossoverDesign
    assignments: tuple[TreatmentSequence, ...]
    outcomes: np.ndarray
    codes: np.ndarray = field(init=False, repr=False, compare=False)
    _groups: dict[TreatmentSequence, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        observed = self.design.observed
        given = self.assignments
        if isinstance(given, np.ndarray) and given.dtype.kind in "iu":
            codes = given.astype(np.intp)
            if codes.ndim != 1:
                raise ValueError(f"assignment codes must be one-dimensional, got shape {codes.shape}")
            if codes.size and not 0 <= codes.min() <= codes.max() < len(observed):
                raise ValueError(
                    f"assignment codes must lie in [0, {len(observed)}), got "
                    f"[{codes.min()}, {codes.max()}]"
                )
            assignments = tuple(map(observed.__getitem__, codes.tolist()))
        else:
            assignments = tuple(as_sequence(z) for z in given)
            index = {z: i for i, z in enumerate(observed)}
            unknown = sorted({str(z) for z in assignments if z not in index})
            if unknown:
                raise ValueError(f"sequences {unknown} are not implemented by the design")
            codes = np.array([index[z] for z in assignments], dtype=np.intp)
        outcomes = np.asarray(self.outcomes, dtype=float)
        if outcomes.ndim != 2 or outcomes.shape != (codes.size, self.design.horizon):
            raise ValueError(
                f"outcomes must be ({codes.size}, {self.design.horizon}), got {outcomes.shape}"
            )
        if not np.all(np.isfinite(outcomes)):
            raise ValueError("outcomes contain non-finite values")
        counts = list(self.design.counts.values())
        tally = np.bincount(codes, minlength=len(observed))
        if not np.array_equal(tally, counts):
            found = {z: int(n) for z, n in zip(observed, tally) if n}
            raise ValueError(
                f"per-sequence counts {found} do not match design counts {self.design.counts}"
            )
        codes.flags.writeable = False
        # a stable sort lists each group's units in increasing order
        order = np.argsort(codes, kind="stable")
        order.flags.writeable = False
        groups = dict(zip(observed, np.split(order, np.cumsum(counts)[:-1])))
        vars(self).update(assignments=assignments, outcomes=outcomes, codes=codes, _groups=groups)

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    def group_indices(self) -> dict[TreatmentSequence, np.ndarray]:
        """Read-only unit indices of each implemented sequence, in unit order."""
        return dict(self._groups)

    @cached_property
    def moments(self) -> Moments:
        """The read-only per-sequence moments, computed once per dataset."""
        return _sequence_moments(self)


def _sequence_moments(dataset: ObservedDataset) -> Moments:
    """One pass over the sequences: count, mean and centered R_z'R_z."""
    counts = np.array(list(dataset.design.counts.values()))
    # gathered period by period, so each unit axis is contiguous
    periods = np.take(dataset.outcomes.T, np.concatenate(list(dataset._groups.values())), axis=1)
    moments = grouped_moments(periods.T, counts)
    for array in moments:
        array.flags.writeable = False
    return moments


def grouped_moments(grouped: np.ndarray, counts: np.ndarray) -> Moments:
    """Moments of (..., N, T) outcomes listed sequence by sequence: counts[0]
    units of the first implemented sequence, then counts[1] of the next.
    The sums run along the unit axis as contiguous memory, in one order
    whatever the leading axes: a (..., N, T) view of a period-major array
    is read in place, any other layout is copied once."""
    units = grouped.swapaxes(-1, -2)
    if units.strides[-1] != units.itemsize:
        units = np.ascontiguousarray(units)
    ys = np.split(units, np.cumsum(counts)[:-1], axis=-1)
    means = [y.mean(axis=-1) for y in ys]
    cross = [r @ r.swapaxes(-1, -2) for r in (y - mean[..., None] for y, mean in zip(ys, means))]
    return Moments(counts, np.stack(means, axis=-2), np.stack(cross, axis=-3))


@dataclass(frozen=True, init=False, eq=False)
class WeightModel:
    """Per-sequence T x T weight matrices, positive definite after repair:
    a read-only (k, T, T) ``stack`` over the sorted ``sequences``, its
    ``inverse_stack`` and the (k,) ``mask`` of the repaired matrices, with
    ``matrices``, ``inverses`` and ``repaired`` read-only views of them.
    The constructor checks a dict of matrices: square, of one shape, finite
    and symmetric (max|m - m'| <= 1e-5 max|m|, a scale-free rule), then
    invertible, ``repaired`` naming some of them."""

    sequences: tuple[TreatmentSequence, ...]
    provenance: str
    stack: np.ndarray = field(repr=False)
    inverse_stack: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)

    def __init__(self, matrices: Mapping[TreatmentSequence | str, np.ndarray], provenance: str = "user", repaired=()):
        given = {z: np.asarray(matrices[z], float) for z in sequence_set(matrices)}
        sequences, shapes = tuple(given), [m.shape for m in given.values()]
        for z, shape in zip(sequences, shapes):
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"weight for {z} must be square, got {shape}")
        if len(set(shapes)) > 1:
            raise ValueError(f"weight matrices must share one shape, got {shapes}")
        stack = np.stack(list(given.values())) if given else np.empty((0, 0, 0))
        finite = np.isfinite(stack).all(axis=(-2, -1))
        # a non-finite matrix fails the first check; zeroed, it warns nothing here
        m = np.where(finite[:, None, None], stack, 0.0)
        asymmetry = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
        symmetric = asymmetry <= 1e-5 * np.abs(m).max(axis=(-2, -1), initial=0.0)
        for ok, fault in ((finite, "has a non-finite entry"), (symmetric, "must be symmetric")):
            if not ok.all():
                raise ValueError(f"weight for {sequences[ok.argmin()]} {fault}")
        named = set(map(as_sequence, repaired))
        unknown = sorted(named.difference(sequences))
        if unknown:
            raise ValueError(f"repaired sequence {unknown[0]} has no weight matrix")
        try:
            self._hold(sequences, provenance, stack, np.array([z in named for z in sequences], dtype=bool))
        except np.linalg.LinAlgError:
            # inv and slogdet share one LU: a zero pivot is a zero sign
            singular = next(compress(sequences, np.linalg.slogdet(stack).sign == 0))
            raise ValueError(f"weight for {singular} is singular") from None

    @classmethod
    def _from_covariances(cls, covariances: np.ndarray, sequences, provenance: str) -> WeightModel:
        """The model of an unrepaired (k, T, T) covariance stack in code order."""
        model = cls.__new__(cls)
        model._hold(tuple(sequences), provenance, *repair_positive_definite(covariances))
        return model

    def _hold(self, sequences, provenance, stack, mask):
        inverse_stack = _inverses(stack, mask)
        for array in (stack, inverse_stack, mask):
            array.flags.writeable = False
        vars(self).update(sequences=sequences, provenance=provenance, stack=stack, inverse_stack=inverse_stack, mask=mask)

    @cached_property
    def matrices(self) -> Mapping[TreatmentSequence, np.ndarray]:
        return MappingProxyType(dict(zip(self.sequences, self.stack)))

    @cached_property
    def inverses(self) -> Mapping[TreatmentSequence, np.ndarray]:
        return MappingProxyType(dict(zip(self.sequences, self.inverse_stack)))

    @property
    def repaired(self) -> tuple[TreatmentSequence, ...]:
        return tuple(compress(self.sequences, self.mask))

    def matrix(self, z: TreatmentSequence | str) -> np.ndarray:
        return self.matrices[as_sequence(z)]

    def __reduce__(self):
        return type(self), (dict(self.matrices), self.provenance, self.repaired)


def repair_positive_definite(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """Symmetrize and lift the spectrum so the matrix is safely invertible:
    eigenvalues below 1e-8 times the mean diagonal (an absolute 1e-8 for a
    zero matrix) are raised by adding a multiple of the identity.  A
    (k, T, T) stack is repaired matrix by matrix, with a (k,) repaired mask.
    """
    m = np.asarray(matrix, dtype=float)
    m = (m + np.swapaxes(m, -1, -2)) / 2.0
    base = np.trace(m, axis1=-2, axis2=-1) / m.shape[-1]
    lift = 1e-8 * np.where(base <= 0.0, 1.0, base) - np.linalg.eigvalsh(m)[..., 0]
    fixed = lift > 0.0
    m[fixed] = m[fixed] + lift[fixed][:, None, None] * np.eye(m.shape[-1])
    return m, fixed if m.ndim > 2 else bool(fixed)


def _inverses(matrices: np.ndarray, repaired: np.ndarray) -> np.ndarray:
    """Omega^-1 of a (..., k, T, T) stack.  The inverses of the matrices the
    (..., k) mask marks as repaired are symmetrized: at their condition (up
    to ~1e8) ``inv`` leaves them asymmetric by rounding, M inherits that,
    and ``eigh`` reads one triangle of it only."""
    inverses = np.linalg.inv(matrices)
    fixed = inverses[repaired]
    inverses[repaired] = (fixed + fixed.swapaxes(-1, -2)) / 2.0
    return inverses


def sequence_means(dataset: ObservedDataset) -> dict[TreatmentSequence, np.ndarray]:
    """Arithmetic mean outcome vector of each implemented sequence."""
    return dict(zip(dataset.design.observed, dataset.moments.means))


def sample_by_sequence(counts: np.ndarray, cross: np.ndarray, sequences) -> np.ndarray:
    """The unrepaired (..., k, T, T) stack of sample covariances, divisor
    N_z - 1.  ``sequences`` name the rows in a too-few-units error."""
    if counts.min() < 2:
        raise DegenerateCovarianceError(
            f"sequence {sequences[np.argmin(counts)]} has {counts.min()} unit(s); need "
            "at least 2 for a sample covariance (use pooled or user weights)"
        )
    return cross / (counts - 1)[:, None, None]


def sample_covariances(dataset: ObservedDataset) -> WeightModel:
    """Per-sequence sample covariance (divisor N_z - 1), repaired to PD."""
    return _weights_of(dataset, "sample")


def _scatter(keys: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The (..., size) sums of (..., *keys.shape) values by their keys in
    [0, size), in one bincount: each item of a stack sums its own values,
    offset past the others', in the order a single item sums them."""
    lead = values.shape[: values.ndim - keys.ndim]
    offsets = np.arange(math.prod(lead)).reshape(lead + (1,) * keys.ndim) * size
    sums = np.bincount((keys + offsets).ravel(), values.ravel(), minlength=offsets.size * size)
    return sums.reshape(lead + (size,))


def pool_by_class(counts: np.ndarray, cross: np.ndarray, ids: np.ndarray, sequences) -> np.ndarray:
    """The unrepaired (..., k, T, T) stack of pooled entries: each (t, t')
    entry of cross, summed over the sequences sharing both their period-t
    and period-t' class ids, over degrees of freedom sum(N_z) - #sequences
    pooled.  ``sequences`` name the rows in a degenerate-entry error."""
    rows, cols = np.triu_indices(cross.shape[-1])
    # one group per (entry, class pair), a class id fixing its period; keys
    # run entry by entry (t <= t'), then in sequence order, as sums and checks do
    key = ids[:, rows].T * (ids.max() + 1) + ids[:, cols].T
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    group = group.reshape(key.shape)
    dof = np.bincount(group.ravel(), np.tile(counts - 1, rows.size))
    if dof.min() < 1:
        entry, z = np.unravel_index(first[dof < 1].min(), key.shape)
        members = list(compress(sequences, group[entry] == group[entry, z]))
        raise DegenerateCovarianceError(
            f"entry ({rows[entry] + 1},{cols[entry] + 1}) pooled over {members} has no degrees of freedom"
        )
    sums = _scatter(group, cross[..., rows, cols].swapaxes(-1, -2), dof.size)
    pooled = np.zeros_like(cross)
    pooled[..., rows, cols] = (sums / dof)[..., group].swapaxes(-1, -2)
    pooled[..., cols, rows] = pooled[..., rows, cols]
    return pooled


def pooled_covariance_entries(dataset: ObservedDataset, scenario: str, carryover_order: int | None = None) -> WeightModel:
    """Entry-wise pooled covariance estimates, pooled by the scenario's
    ClassMap class ids (see ``pool_by_class``).  Scenario c pools with the
    scenario-b classes, since time invariance adds no equalities.
    """
    return _weights_of(dataset, "pooled", scenario, carryover_order)


def _covariance_rule(weights, design: CrossoverDesign, scenario, carryover_order):
    """The rule of the weight choice "sample" or "pooled": it maps the
    (..., k, T, T) centered cross-products to the unrepaired covariance
    stack, and its count checks read the design alone.  Any other choice
    raises ValueError."""
    observed = design.observed
    counts = np.array(list(design.counts.values()))
    if weights == "sample":
        return partial(sample_by_sequence, counts, sequences=observed)
    if weights == "pooled":
        ids = ClassMap(design.horizon, scenario, carryover_order).ids(observed)[1]
        return partial(pool_by_class, counts, ids=ids, sequences=observed)
    raise ValueError(f"weights must be 'sample', 'pooled', or a WeightModel, got {weights!r}")


def _weights_of(dataset: ObservedDataset, choice: str, scenario=None, carryover_order=None) -> WeightModel:
    """The choice's repaired weight model of the dataset's moments."""
    covariances = _covariance_rule(choice, dataset.design, scenario, carryover_order)
    return WeightModel._from_covariances(covariances(dataset.moments.cross), dataset.design.observed, choice)


@dataclass
class RwlsFit:
    """A solved restricted weighted least squares fit in the d reduced
    coordinates of the null-space basis Z = E Q (see the module docstring).

    ``gamma`` is the coefficient vector over the layout and ``beta`` its
    reduced coordinates, gamma = Z beta; ``whitener`` is H = V Lambda^-1/2
    from the eigendecomposition M = V Lambda V', so M^-1 = H H', and
    ``condition_number`` is cond(M) = lambda_max / lambda_min.
    ``reduced_meat`` (set once residual moments are available) is the d x d
    meat, so Cov(B gamma-hat) = (BZ) M^-1 meat M^-1 (BZ)'; no p x p matrix
    is kept or formed.  The T x d blocks ``weighted_basis``
    G_z = N_z Omega_z^-1 Z_z are formed only when read.  The fit keeps the
    plan it was solved with, for the meat and G_z.
    """

    design: CrossoverDesign
    restriction: RestrictionMatrix
    weight_model: WeightModel
    means: dict[TreatmentSequence, np.ndarray]
    gamma: np.ndarray
    beta: np.ndarray
    whitener: np.ndarray
    condition_number: float
    warnings: tuple[str, ...] = ()
    reduced_meat: np.ndarray | None = None
    _plan: _FitPlan = field(init=False, repr=False, compare=False)

    @property
    def layout(self) -> CoefficientLayout:
        return self.restriction.layout

    @property
    def scenario(self) -> str | None:
        return self.restriction.scenario

    @property
    def carryover_order(self) -> int | None:
        return self.restriction.carryover_order

    @property
    def restriction_residual(self) -> float:
        return self.restriction.residual(self.gamma)

    @property
    def weighted_basis(self) -> dict[TreatmentSequence, np.ndarray]:
        """G_z = N_z Omega_z^-1 Z_z for each implemented sequence."""
        plan = self._plan
        weighted = plan.counts[:, None, None] * plan.inverses
        return dict(zip(self.design.observed, weighted @ plan.class_basis[plan.entry_classes]))

    def coefficient(self, period: int, z: TreatmentSequence | str) -> float:
        return float(self.gamma[self.layout.column(period, z)])


def _class_values(q: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Q beta, the (..., q) coefficient of each class."""
    return (q @ beta[..., None])[..., 0]


class _FitPlan:
    """What every fit of one design, restriction and weight choice shares,
    built once (see the module docstring).

    Construction raises the errors no data can change, in this order:
    NotIdentifiableError, a malformed spec, then an unknown weight choice,
    a sequence or pooled entry with no degrees of freedom, or a user
    weight model that lacks an implemented sequence or is misshapen.
    ``hit_rows`` is Q_h, ``local`` the (k, T) index of each (sequence,
    period) entry into the classes hit and ``entry_classes`` its class.
    ``inverses`` is the (k, T, T) Omega_z^-1 of a WeightModel ``weights``,
    gathered from its stack; for "sample" and "pooled" it is None and
    ``covariances`` builds the unrepaired stack from the cross-products.
    ``rows`` holds BZ and the spec's snapped rows, or None."""

    def __init__(
        self,
        design: CrossoverDesign,
        restriction: RestrictionMatrix,
        spec: EstimandSpec | None,
        weights: str | WeightModel = "sample",
        scenario: str | None = None,
        carryover_order: int | None = None,
    ):
        check = is_identifiable(design, restriction)
        if not check.identifiable:
            raise NotIdentifiableError(check.rank, check.dimension)
        observed = design.observed
        self.counts = np.array(list(design.counts.values()))
        self.class_basis = restriction.class_basis
        hit, self.local, _ = restriction.implemented(observed)
        self.hit_rows, self.entry_classes = self.class_basis[hit], hit[self.local]
        self.rows = None if spec is None else _estimand_rows(restriction, spec)
        self.covariances, self.inverses = None, None
        shape = (design.horizon, design.horizon)
        if isinstance(weights, WeightModel):
            self.inverses = weights.inverse_stack
            # one positional gather, unless the model holds just these sequences
            if weights.sequences != observed:
                index = dict(zip(weights.sequences, range(len(weights.sequences))))
                missing = [z for z in observed if z not in index]
                if missing:
                    raise MissingSequenceError(f"weight model lacks a matrix for {missing[0]}")
                self.inverses = self.inverses[[index[z] for z in observed]]
            if self.inverses.shape[1:] != shape:
                raise ValueError(f"weight for {observed[0]} has shape {self.inverses.shape[1:]}")
        else:
            self.covariances = _covariance_rule(weights, design, scenario, carryover_order)
            # the count checks read no data: an empty stack raises them now
            self.covariances(np.empty((0, len(observed)) + shape))

    def _reduce(self, blocks: np.ndarray) -> np.ndarray:
        """Q_h' (sum_z E_z' X_z E_z) Q_h: (..., k, T, T) blocks summed into
        (..., h, h) by the class index of each (sequence, period) entry."""
        q, size = self.hit_rows, len(self.hit_rows)
        keys = self.local[:, :, None] * size + self.local[:, None, :]
        return q.T @ _scatter(keys, blocks, size * size).reshape(blocks.shape[:-3] + (size, size)) @ q

    def solve(self, means: np.ndarray, inverses: np.ndarray):
        """The ascending eigenvalues of M, its whitener H (M^-1 = H H') and
        beta = M^-1 Q_h' sum_z E_z' W_z Ybar_z from (..., k, T) means and
        (..., k, T, T) inverses, M decomposed once by ``eigh``.  Raises
        ConditioningError when an M is not positive definite."""
        q = self.hit_rows
        weighted = self.counts[:, None, None] * inverses
        rhs = q.T @ _scatter(self.local, (weighted @ means[..., None])[..., 0], len(q))[..., None]
        eigenvalues, vectors = np.linalg.eigh(self._reduce(weighted))
        if not np.all(eigenvalues[..., 0] > 0.0):
            raise ConditioningError("reduced normal matrix is not positive definite")
        whitener = vectors / np.sqrt(eigenvalues)[..., None, :]
        return eigenvalues, whitener, (whitener @ (whitener.swapaxes(-1, -2) @ rhs))[..., 0]

    def meat(self, moments: Moments, inverses: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Q_h' (sum_z E_z' Omega_z^-1 R_z'R_z Omega_z^-1 E_z) Q_h with
        R_z'R_z = cross_z + N_z delta_z delta_z', delta_z the (..., k, T)
        means less the fitted coefficients Q beta."""
        _, means, cross = moments
        delta = means - _class_values(self.class_basis, beta)[..., self.entry_classes]
        spread = cross + self.counts[:, None, None] * delta[..., :, None] * delta[..., None, :]
        return self._reduce(inverses @ spread @ inverses)


def solve_restricted_wls(
    design: CrossoverDesign,
    means: Mapping[TreatmentSequence, np.ndarray],
    weights: WeightModel,
    restriction: RestrictionMatrix,
) -> RwlsFit:
    """Solve for the coefficient vector in the null space of C.

    Raises NotIdentifiableError when X'X + C'C is rank deficient,
    MissingSequenceError when the weights or means lack an implemented
    sequence, ValueError for a misshapen weight or a misshapen or
    non-finite mean, and ConditioningError when M is not positive definite.
    A condition number of M above 1e12 attaches a warning to the fit.
    """
    plan = _FitPlan(design, restriction, None, weights)
    given = {as_sequence(z): np.asarray(m, dtype=float) for z, m in means.items()}
    for z in design.observed:
        if z not in given:
            raise MissingSequenceError(f"means lack a vector for {z}")
        if given[z].shape != (design.horizon,):
            raise ValueError(f"mean for {z} must have shape ({design.horizon},)")
        if not np.isfinite(given[z]).all():
            raise ValueError(f"mean for {z} has a non-finite entry")
    return _solved(plan, design, restriction, weights, np.stack([given[z] for z in design.observed]))


def _solved(plan, design, restriction, weights, means) -> RwlsFit:
    """The plan solved on the (k, T) means, with its warnings; the fit keeps the plan."""
    eigenvalues, whitener, beta = plan.solve(means, plan.inverses)
    gamma = _class_values(plan.class_basis, beta)[restriction.class_ids]
    condition = float(eigenvalues[-1] / eigenvalues[0])
    warnings = []
    if condition > CONDITION_WARNING_THRESHOLD:
        warnings.append(f"reduced system condition number {condition:.3e} exceeds {CONDITION_WARNING_THRESHOLD:.0e}")
    residual = restriction.residual(gamma)
    if residual > RESTRICTION_TOLERANCE * (1.0 + np.abs(gamma).max()):
        warnings.append(f"restriction residual {residual:.3e} exceeds tolerance")
    by_sequence = dict(zip(design.observed, means))
    fit = RwlsFit(design, restriction, weights, by_sequence, gamma, beta, whitener, condition, tuple(warnings))
    fit._plan = plan
    return fit


def feasible_rwls(
    dataset: ObservedDataset,
    scenario: str,
    carryover_order: int | None = None,
    weights: str | WeightModel = "sample",
    restriction: RestrictionMatrix | None = None,
    small_sample_scale: bool = False,
) -> RwlsFit:
    """Two-step pipeline: estimate the weights, then solve the restricted
    weighted least squares and attach the d x d sandwich meat from the
    dataset's moments (see the module docstring).

    ``weights`` is "sample" for per-sequence sample covariances, "pooled"
    for scenario-pooled entries, or an explicit WeightModel.  An unknown
    choice or too few units raise before NotIdentifiableError.
    ``small_sample_scale`` multiplies the meat by N / (N - d), d being the
    number of free coefficients, and needs N > d; off, the meat is the
    plain residual one.
    """
    design = dataset.design
    if restriction is None:
        restriction = assemble(scenario, design.horizon, design.scope, carryover_order)
    if not isinstance(weights, WeightModel):
        weights = _weights_of(dataset, weights, scenario, carryover_order)
    plan = _FitPlan(design, restriction, None, weights)
    fit = _solved(plan, design, restriction, weights, dataset.moments.means)
    meat = plan.meat(dataset.moments, plan.inverses, fit.beta)
    if small_sample_scale:
        n, free = dataset.n_units, restriction.dimension
        if n <= free:
            raise ValueError(f"small-sample scale needs N > {free}, got N = {n}")
        meat = meat * (n / (n - free))
    fit.reduced_meat = meat
    return fit


def _estimand_rows(restriction: RestrictionMatrix, spec: EstimandSpec) -> tuple[np.ndarray, np.ndarray]:
    """BZ = (B E) Q, B E summing the spec's W blocks by class, and the mask
    of the rows of B lying in the restriction row space (BZ = 0), which are
    exact zeroes of the restricted model."""
    layout = restriction.layout
    if spec.horizon != layout.horizon:
        raise ValueError(f"spec horizon {spec.horizon} != layout horizon {layout.horizon}")
    try:
        positions = layout.positions(spec.weights)
    except KeyError as exc:
        raise ValueError(f"spec references {exc.args[0]} outside the fitted scope") from None
    q = restriction.class_basis
    blocks = np.stack(list(spec.weights.values()))
    ids = restriction.class_ids.reshape(len(layout.scope), -1)[positions]
    # B E: each row of the (n, K, T) blocks summed by class
    by_class = _scatter(ids, blocks.swapaxes(0, 1), len(q))
    bz = by_class @ q
    scale = np.maximum(np.abs(blocks).max(axis=(0, 2)), 1.0)
    return bz, np.abs(bz).max(axis=1) <= ZERO_FUNCTIONAL_TOLERANCE * scale


def _functional(bz, restricted, beta, whitener) -> tuple[np.ndarray, np.ndarray]:
    """B gamma-hat = (BZ) beta and (BZ) M^-1 = (BZ) H H' over stacks of
    fits, snapped rows zeroed."""
    point = (bz @ beta[..., None])[..., 0]
    point[..., restricted] = 0.0
    bm = bz @ whitener @ whitener.swapaxes(-1, -2)
    bm[..., restricted, :] = 0.0
    return point, bm


def _reduced_functional(fit: RwlsFit, spec: EstimandSpec) -> tuple[np.ndarray, np.ndarray]:
    """The point estimate B gamma-hat and (BZ) M^-1.  Rows of B in the
    restriction row space (BZ = 0) are exact zeroes of the restricted
    model: their estimates and variances are snapped to exact zero."""
    return _functional(*_estimand_rows(fit.restriction, spec), fit.beta, fit.whitener)


def point_estimate(fit: RwlsFit, spec: EstimandSpec) -> np.ndarray:
    """theta-hat = B gamma-hat, with restricted-to-zero rows exactly zero."""
    return _reduced_functional(fit, spec)[0]


def _chi2_sf(dof: int, x: float) -> float:
    """Chi-square survival function for a positive integer dof at x >= 0.

    With h = x/2, the even-dof tail is e^-h sum_{j<dof/2} h^j / j!, and
    the odd-dof tail is erfc(sqrt(h)) + e^-h sum_{j<(dof-1)/2} h^(j+1/2)
    / Gamma(j+3/2).  Each term is formed in log space, so e^-h may
    underflow while the terms that matter do not.
    """
    if x <= 0.0:
        return 1.0
    half = x / 2.0
    log_half = math.log(half)
    offset = 0.5 * (dof % 2)
    head = math.erfc(math.sqrt(half)) if offset else 0.0
    return head + math.fsum(
        math.exp((j + offset) * log_half - half - math.lgamma(j + offset + 1.0))
        for j in range(dof // 2)
    )


def critical_value(level: float) -> float:
    """The two-sided standard normal quantile of a level in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


@dataclass(frozen=True)
class EstimandEstimate:
    labels: tuple[str, ...]
    point: np.ndarray
    covariance: np.ndarray
    std_errors: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    level: float
    wald_statistic: float
    wald_df: int
    wald_pvalue: float

    @property
    def dimension(self) -> int:
        return len(self.labels)


def estimate(fit: RwlsFit, spec: EstimandSpec, level: float = 0.95) -> EstimandEstimate:
    """Point estimate, sandwich covariance, per-coordinate confidence
    intervals, and the Wald statistic against zero for one estimand."""
    z_crit = critical_value(level)
    if fit.reduced_meat is None:
        raise ValueError("fit has no sandwich pieces; run feasible_rwls first")
    point, bm = _reduced_functional(fit, spec)
    covariance = bm @ fit.reduced_meat @ bm.T
    covariance = (covariance + covariance.T) / 2.0
    variances = np.clip(np.diag(covariance), 0.0, None)
    std_errors = np.sqrt(variances)
    ci_lower = point - z_crit * std_errors
    ci_upper = point + z_crit * std_errors
    wald = float(point @ np.linalg.pinv(covariance) @ point)
    pvalue = _chi2_sf(spec.dimension, max(wald, 0.0))
    return EstimandEstimate(
        labels=spec.labels,
        point=point,
        covariance=covariance,
        std_errors=std_errors,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        level=level,
        wald_statistic=wald,
        wald_df=spec.dimension,
        wald_pvalue=pvalue,
    )


def implied_estimator_weights(fit: RwlsFit, spec: EstimandSpec) -> dict[TreatmentSequence, np.ndarray]:
    """K x T weights on each observed group mean implied by the fit.

    The estimator equals sum_z M(z) Ybar_z with M(z) = (BZ) M^-1 G_z'.
    """
    bm = _reduced_functional(fit, spec)[1]
    return {z: bm @ g.T for z, g in fit.weighted_basis.items()}


def oracle_variance(fit: RwlsFit, spec: EstimandSpec, table: PotentialOutcomeTable) -> np.ndarray:
    """Exact randomization covariance of the fixed-weight estimator.

    Requires the full potential-outcome table:
    sum_z M(z) S2(z) M(z)' / N_z minus the (inestimable from data alone)
    individual-effect covariance divided by N.  With M(z) = (BZ) M^-1 G_z',
    the sum is the sandwich (BZ) M^-1 meat M^-1 (BZ)' whose meat scatters
    Omega_z^-1 (N_z S2(z)) Omega_z^-1, as the EHW meat scatters R_z'R_z.
    The table must cover the design's N units.
    """
    if table.n_units != fit.design.n_units:
        raise ValueError(f"table has {table.n_units} units, design has {fit.design.n_units}")
    plan = fit._plan
    bm = _reduced_functional(fit, spec)[1]
    spread = plan.counts[:, None, None] * np.stack([table.covariance(z) for z in fit.design.observed])
    total = bm @ plan._reduce(plan.inverses @ spread @ plan.inverses) @ bm.T
    return total - individual_effect_covariance(spec, table) / table.n_units


class StackedFit(_FitPlan):
    """``feasible_rwls`` then ``estimate``, on stacks of datasets of one design.

    Construction builds the fit plan of the design, restriction, weight
    choice and estimand, raising the errors no data can change.  Calling
    it on a (C, N, T) outcome stack, each row listing its units sequence
    by sequence in code order, returns the (C, K) point estimates and
    sandwich variances, each bitwise what the dataset's own
    ``feasible_rwls`` and ``estimate`` give: ``eigh`` and the matrix
    products run item by item on the stack as on one fit.  It raises
    ConditioningError when a reduced matrix is not positive definite.  The
    condition number, the restriction-residual warning and the Wald test
    are not computed.
    """

    @property
    def classes(self) -> int:
        """h, the number of classes the design hits: each M is h x h."""
        return len(self.hit_rows)

    def __call__(self, grouped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        moments = grouped_moments(grouped, self.counts)
        inverses = self.inverses
        if inverses is None:
            inverses = _inverses(*repair_positive_definite(self.covariances(moments.cross)))
        _, whitener, beta = self.solve(moments.means, inverses)
        meat = self.meat(moments, inverses, beta)
        point, bm = _functional(*self.rows, beta, whitener)
        covariance = bm @ meat @ bm.swapaxes(-1, -2)
        # estimate symmetrizes the covariance, which leaves its diagonal as is
        return point, np.diagonal(covariance, axis1=-2, axis2=-1)
