"""Restricted weighted least squares estimation and EHW inference.

The engine consumes per-sequence outcome means, per-sequence weight
matrices, and a restriction matrix C, and solves the restricted problem
in the null space of C (Bjorck, Numerical Methods for Least Squares
Problems, 1996).  With Z an orthonormal p x d null-space basis, Z_z its
rows in z's coefficient block, G_z = N_z Omega_z^-1 Z_z and R_z the
N_z x T unit residuals of z, summing over the implemented sequences,

    M = sum_z Z_z' G_z = L L',    gamma = Z M^-1 sum_z G_z' Ybar_z,
    meat = sum_z G_z' R_z' R_z G_z / N_z^2,
    Cov(B gamma-hat) = (BZ) M^-1 meat M^-1 (BZ)'.

One Cholesky factor L of the d x d matrix M serves the solve, the
sandwich and every estimand; no p x p matrix is formed on that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Mapping

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
from .sequences import CrossoverDesign, TreatmentSequence, as_sequence

CONDITION_WARNING_THRESHOLD = 1e12
RESTRICTION_TOLERANCE = 1e-9
# rows of B @ Z below this relative size are exact zeroes of the
# restricted model (the functional lies in the restriction span)
ZERO_FUNCTIONAL_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ObservedDataset:
    """Observed outcomes with one assigned sequence per unit.

    ``assignments`` is given either as one sequence (or word) per unit or
    as an integer code vector, code ``i`` standing for
    ``design.observed[i]``.  Validation runs once, at construction: the
    outcome shape, finiteness, and per-sequence counts against the design.
    Afterwards ``assignments`` holds the sequences, ``codes`` the integer
    codes, and the per-sequence unit indices are computed once for every
    later ``group_indices`` call.
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
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "_groups", groups)

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    def group_indices(self) -> dict[TreatmentSequence, np.ndarray]:
        """Read-only unit indices of each implemented sequence, in unit order."""
        return dict(self._groups)


@dataclass(frozen=True)
class WeightModel:
    """Per-sequence T x T weight matrices, positive definite after repair,
    and their ``inverses``, computed once at construction."""

    matrices: Mapping[TreatmentSequence, np.ndarray]
    provenance: str = "user"
    repaired: tuple[TreatmentSequence, ...] = ()
    inverses: dict[TreatmentSequence, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrices = {}
        for z, m in self.matrices.items():
            z = as_sequence(z)
            m = np.asarray(m, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"weight for {z} must be square, got {m.shape}")
            matrices[z] = m
        object.__setattr__(self, "matrices", dict(sorted(matrices.items())))
        object.__setattr__(self, "inverses", {z: np.linalg.inv(m) for z, m in self.matrices.items()})

    def matrix(self, z: TreatmentSequence | str) -> np.ndarray:
        return self.matrices[as_sequence(z)]


def repair_positive_definite(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """Symmetrize and lift the spectrum so the matrix is safely invertible.

    The floor is 1e-8 times the mean diagonal (or an absolute 1e-8 for a
    zero matrix); eigenvalues below it are raised by adding a multiple of
    the identity.
    """
    m = np.asarray(matrix, dtype=float)
    m = (m + m.T) / 2.0
    t = m.shape[0]
    base = np.trace(m) / t
    if base <= 0.0:
        base = 1.0
    floor = 1e-8 * base
    smallest = np.linalg.eigvalsh(m).min()
    if smallest < floor:
        return m + (floor - smallest) * np.eye(t), True
    return m, False


def sequence_means(dataset: ObservedDataset) -> dict[TreatmentSequence, np.ndarray]:
    """Arithmetic mean outcome vector of each implemented sequence."""
    return {z: dataset.outcomes[idx].mean(axis=0) for z, idx in dataset.group_indices().items()}


def sample_covariances(dataset: ObservedDataset) -> WeightModel:
    """Per-sequence sample covariance (divisor N_z - 1), repaired to PD."""
    matrices = {}
    repaired = []
    for z, idx in dataset.group_indices().items():
        if idx.size < 2:
            raise DegenerateCovarianceError(
                f"sequence {z} has {idx.size} unit(s); need at least 2 for a sample "
                "covariance (use pooled or user weights)"
            )
        y = dataset.outcomes[idx]
        centered = y - y.mean(axis=0)
        cov = centered.T @ centered / (idx.size - 1)
        cov, fixed = repair_positive_definite(cov)
        if fixed:
            repaired.append(z)
        matrices[z] = cov
    return WeightModel(matrices, "sample", tuple(repaired))


def pooled_covariance_entries(
    dataset: ObservedDataset, scenario: str, carryover_order: int | None = None
) -> WeightModel:
    """Entry-wise pooled covariance estimates.

    Each (t, t') entry is pooled across the sequences sharing both their
    period-t and period-t' classes, using pooled degrees of freedom
    sum(N_z) - #sequences pooled.  Scenario c pools with the scenario-b
    classes, since time invariance adds no entry equalities.
    """
    horizon = dataset.design.horizon
    class_map = ClassMap(horizon, scenario, carryover_order)
    groups = dataset.group_indices()
    observed = dataset.design.observed
    centered = {}
    for z, idx in groups.items():
        y = dataset.outcomes[idx]
        centered[z] = y - y.mean(axis=0)
    pooled = {z: np.zeros((horizon, horizon)) for z in observed}
    for t1 in range(1, horizon + 1):
        for t2 in range(t1, horizon + 1):
            classes: dict[object, list[TreatmentSequence]] = {}
            for z in observed:
                classes.setdefault((class_map.key(t1, z), class_map.key(t2, z)), []).append(z)
            for members in classes.values():
                dof = sum(groups[z].size for z in members) - len(members)
                if dof < 1:
                    raise DegenerateCovarianceError(
                        f"entry ({t1},{t2}) pooled over {members} has no degrees of freedom"
                    )
                total = sum(
                    float(centered[z][:, t1 - 1] @ centered[z][:, t2 - 1]) for z in members
                )
                value = total / dof
                for z in members:
                    pooled[z][t1 - 1, t2 - 1] = value
                    pooled[z][t2 - 1, t1 - 1] = value
    matrices = {}
    repaired = []
    for z, m in pooled.items():
        m, fixed = repair_positive_definite(m)
        if fixed:
            repaired.append(z)
        matrices[z] = m
    return WeightModel(matrices, "pooled", tuple(repaired))


@dataclass
class RwlsFit:
    """A solved restricted weighted least squares fit in the d reduced
    coordinates of the null-space basis Z (see the module docstring).

    ``gamma`` is the coefficient vector over the layout; ``factor`` is the
    Cholesky factor L of M = sum_z Z_z' G_z, and ``condition_number`` is
    cond(M); ``weighted_basis`` maps each implemented sequence to G_z.
    ``reduced_meat`` (set once residuals are available) is the d x d meat,
    so Cov(B gamma-hat) = (BZ) M^-1 meat M^-1 (BZ)'.  The p x p ``u11`` =
    Z M^-1 Z' and ``ehw`` = Z M^-1 meat M^-1 Z' are formed only when read.
    """

    design: CrossoverDesign
    restriction: RestrictionMatrix
    weight_model: WeightModel
    means: dict[TreatmentSequence, np.ndarray]
    gamma: np.ndarray
    factor: np.ndarray
    weighted_basis: dict[TreatmentSequence, np.ndarray]
    condition_number: float
    warnings: tuple[str, ...] = ()
    reduced_meat: np.ndarray | None = None

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
    def u11(self) -> np.ndarray:
        """Z M^-1 Z', the p x p map from the weighted mean stack to gamma."""
        half = np.linalg.solve(self.factor, self.restriction.basis.T)
        return half.T @ half

    @property
    def ehw(self) -> np.ndarray | None:
        """The p x p sandwich covariance of gamma, None before the meat is set."""
        if self.reduced_meat is None:
            return None
        # with half = L^-1 Z', the sandwich is half' (L^-1 meat L^-T) half
        half = np.linalg.solve(self.factor, self.restriction.basis.T)
        inner = np.linalg.solve(self.factor, np.linalg.solve(self.factor, self.reduced_meat).T)
        return half.T @ inner @ half

    def coefficient(self, period: int, z: TreatmentSequence | str) -> float:
        return float(self.gamma[self.layout.column(period, z)])


def _solve_reduced(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^-1 rhs from the Cholesky factor L of M."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def solve_restricted_wls(
    design: CrossoverDesign,
    means: Mapping[TreatmentSequence, np.ndarray],
    weights: WeightModel,
    restriction: RestrictionMatrix,
) -> RwlsFit:
    """Solve for the coefficient vector in the null space of C.

    Raises NotIdentifiableError when X'X + C'C is rank deficient,
    MissingSequenceError when the weight model lacks an implemented
    sequence, ValueError for a weight or mean of the wrong shape, and
    ConditioningError when the reduced matrix M has no Cholesky factor.
    A condition number of M above 1e12 attaches a warning to the fit.
    """
    check = is_identifiable(design, restriction)
    if not check.identifiable:
        raise NotIdentifiableError(check.rank, check.dimension)
    layout = restriction.layout
    basis = restriction.basis
    horizon = design.horizon
    reduced = np.zeros((basis.shape[1], basis.shape[1]))
    rhs = np.zeros(basis.shape[1])
    weighted = {}
    fitted_means = {}
    for z, n in design.counts.items():
        omega = weights.matrices.get(z)
        if omega is None:
            raise MissingSequenceError(f"weight model lacks a matrix for {z}")
        if omega.shape != (horizon, horizon):
            raise ValueError(f"weight for {z} has shape {omega.shape}")
        mean = np.asarray(means[z], dtype=float)
        if mean.shape != (horizon,):
            raise ValueError(f"mean for {z} must have shape ({horizon},)")
        block = basis[layout.block(z)]
        g = n * weights.inverses[z] @ block
        reduced += block.T @ g
        rhs += g.T @ mean
        weighted[z] = g
        fitted_means[z] = mean
    try:
        factor = np.linalg.cholesky(reduced)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("reduced normal matrix is not positive definite") from exc
    gamma = basis @ _solve_reduced(factor, rhs)
    condition = float(np.linalg.cond(reduced))
    warnings: list[str] = []
    if condition > CONDITION_WARNING_THRESHOLD:
        warnings.append(
            f"reduced system condition number {condition:.3e} exceeds "
            f"{CONDITION_WARNING_THRESHOLD:.0e}"
        )
    fit = RwlsFit(
        design=design,
        restriction=restriction,
        weight_model=weights,
        means=fitted_means,
        gamma=gamma,
        factor=factor,
        weighted_basis=weighted,
        condition_number=condition,
        warnings=tuple(warnings),
    )
    residual = fit.restriction_residual
    if residual > RESTRICTION_TOLERANCE * (1.0 + np.abs(gamma).max()):
        fit.warnings = fit.warnings + (
            f"restriction residual {residual:.3e} exceeds tolerance",
        )
    return fit


def _reduced_meat(
    fit: RwlsFit, dataset: ObservedDataset, small_sample_scale: bool
) -> np.ndarray:
    """S'S for the N x d score matrix S stacking R_z G_z / N_z over the
    implemented sequences, optionally scaled by N / (N - d)."""
    layout = fit.layout
    scores = np.concatenate([
        (dataset.outcomes[idx] - fit.gamma[layout.block(z)]) @ fit.weighted_basis[z] / idx.size
        for z, idx in dataset.group_indices().items()
    ])
    meat = scores.T @ scores
    if small_sample_scale:
        n = dataset.n_units
        free = layout.size - fit.restriction.n_rows
        if n <= free:
            raise ValueError(f"small-sample scale needs N > {free}, got N = {n}")
        meat = meat * (n / (n - free))
    return meat


def ehw_covariance(
    fit: RwlsFit, dataset: ObservedDataset, small_sample_scale: bool = False
) -> np.ndarray:
    """Sandwich covariance of the coefficient vector from unit residuals.

    Stores the d x d reduced meat on the fit for estimand-level reuse and
    returns the p x p matrix Z M^-1 meat M^-1 Z' (``fit.ehw``).

    ``small_sample_scale`` multiplies the meat by N / (N - d), d being the
    number of free coefficients; the default (off) uses the plain per-unit
    residual outer products.
    """
    fit.reduced_meat = _reduced_meat(fit, dataset, small_sample_scale)
    return fit.ehw


def feasible_rwls(
    dataset: ObservedDataset,
    scenario: str,
    carryover_order: int | None = None,
    weights: str | WeightModel = "sample",
    restriction: RestrictionMatrix | None = None,
    small_sample_scale: bool = False,
) -> RwlsFit:
    """Two-step pipeline: estimate the weights, then solve the restricted
    weighted least squares and attach the reduced sandwich meat.

    ``weights`` is "sample" for per-sequence sample covariances, "pooled"
    for scenario-pooled entries, or an explicit WeightModel.
    """
    design = dataset.design
    if restriction is None:
        restriction = assemble(scenario, design.horizon, design.scope, carryover_order)
    if isinstance(weights, WeightModel):
        model = weights
    elif weights == "sample":
        model = sample_covariances(dataset)
    elif weights == "pooled":
        model = pooled_covariance_entries(dataset, scenario, carryover_order)
    else:
        raise ValueError(f"weights must be 'sample', 'pooled', or a WeightModel, got {weights!r}")
    fit = solve_restricted_wls(design, sequence_means(dataset), model, restriction)
    fit.reduced_meat = _reduced_meat(fit, dataset, small_sample_scale)
    return fit


def _estimand_matrix(fit: RwlsFit, spec: EstimandSpec) -> np.ndarray:
    """K x p matrix assembling the spec's W blocks over the layout."""
    layout = fit.layout
    if spec.horizon != layout.horizon:
        raise ValueError(f"spec horizon {spec.horizon} != layout horizon {layout.horizon}")
    scope_set = set(layout.scope)
    b = np.zeros((spec.dimension, layout.size))
    for z, w in spec.weights.items():
        if z not in scope_set:
            raise ValueError(f"spec references {z} outside the fitted scope")
        b[:, layout.block(z)] = w
    return b


def _reduced_functional(fit: RwlsFit, spec: EstimandSpec) -> tuple[np.ndarray, np.ndarray]:
    """The point estimate B gamma-hat and (BZ) M^-1, with snapped rows zeroed.

    Rows of B lying in the restriction row space, that is, with BZ = 0,
    are exact zeroes of the restricted model, so their estimates and
    variances are snapped to exact zero.
    """
    b = _estimand_matrix(fit, spec)
    bz = b @ fit.restriction.basis
    scale = np.maximum(np.abs(b).max(axis=1), 1.0)
    restricted = np.abs(bz).max(axis=1) <= ZERO_FUNCTIONAL_TOLERANCE * scale
    point = b @ fit.gamma
    point[restricted] = 0.0
    bm = _solve_reduced(fit.factor, bz.T).T
    bm[restricted] = 0.0
    return point, bm


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
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    if fit.reduced_meat is None:
        raise ValueError("fit has no sandwich pieces; run feasible_rwls or ehw_covariance first")
    point, bm = _reduced_functional(fit, spec)
    covariance = bm @ fit.reduced_meat @ bm.T
    covariance = (covariance + covariance.T) / 2.0
    variances = np.clip(np.diag(covariance), 0.0, None)
    std_errors = np.sqrt(variances)
    z_crit = NormalDist().inv_cdf(0.5 + level / 2.0)
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


def implied_estimator_weights(
    fit: RwlsFit, spec: EstimandSpec
) -> dict[TreatmentSequence, np.ndarray]:
    """K x T weights on each observed group mean implied by the fit.

    The estimator equals sum_z M(z) Ybar_z with M(z) = (BZ) M^-1 G_z'.
    """
    bm = _reduced_functional(fit, spec)[1]
    return {z: bm @ g.T for z, g in fit.weighted_basis.items()}


def oracle_variance(
    fit: RwlsFit, spec: EstimandSpec, table: PotentialOutcomeTable
) -> np.ndarray:
    """Exact randomization covariance of the fixed-weight estimator.

    Requires the full potential-outcome table:
    sum_z M(z) S2(z) M(z)' / N_z minus the (inestimable from data alone)
    individual-effect covariance divided by N.
    """
    implied = implied_estimator_weights(fit, spec)
    total = np.zeros((spec.dimension, spec.dimension))
    for z, n in fit.design.counts.items():
        m = implied[z]
        total += m @ table.covariance(z) @ m.T / n
    total -= individual_effect_covariance(spec, table) / table.n_units
    return total
