import numpy as np
import pytest
import scipy.linalg

from crossover import (
    ClassMap,
    CrossoverDesign,
    ObservedDataset,
    RestrictionMatrix,
    WeightModel,
    implied_estimator_weights,
    individual_effect_covariance,
    rwls,
)


@pytest.fixture(autouse=True)
def fresh_restrictions():
    """Start each test with no shared restriction or pooling class ids, so
    the rank checks, implemented-set records and class ids a test counts
    are its own."""
    ClassMap._shared.cache_clear()
    rwls._pooling_ids.cache_clear()


def template_labels(design: CrossoverDesign):
    """Units listed sequence-by-sequence in design order."""
    labels = []
    for z, n in design.counts.items():
        labels.extend([z] * n)
    return tuple(labels)


def make_dataset(design: CrossoverDesign, rng: np.random.Generator) -> ObservedDataset:
    """Random outcomes with units grouped in design order."""
    labels = template_labels(design)
    outcomes = rng.normal(size=(design.n_units, design.horizon))
    return ObservedDataset(design, labels, outcomes)


def dense_regressors(design: CrossoverDesign, dataset: ObservedDataset):
    """Unit-level stacked regressor matrix, outcome vector, and weight
    blocks, built without the per-sequence shortcuts."""
    scope = design.scope
    horizon = design.horizon
    p = horizon * len(scope)
    index = {z: i for i, z in enumerate(scope)}
    n = dataset.n_units
    x = np.zeros((n * horizon, p))
    y = np.zeros(n * horizon)
    for i, z in enumerate(dataset.assignments):
        rows = slice(i * horizon, (i + 1) * horizon)
        cols = slice(index[z] * horizon, (index[z] + 1) * horizon)
        x[rows, cols] = np.eye(horizon)
        y[rows] = dataset.outcomes[i]
    return x, y


def dense_omega_inverse(design: CrossoverDesign, dataset: ObservedDataset, weights: WeightModel):
    horizon = design.horizon
    n = dataset.n_units
    omega_inv = np.zeros((n * horizon, n * horizon))
    for i, z in enumerate(dataset.assignments):
        rows = slice(i * horizon, (i + 1) * horizon)
        omega_inv[rows, rows] = np.linalg.inv(weights.matrix(z))
    return omega_inv


def dense_basis(restriction: RestrictionMatrix) -> np.ndarray:
    """The dense p x d null-space basis Z = E Q of a restriction."""
    return restriction.class_basis[restriction.class_ids]


def dense_u11(fit) -> np.ndarray:
    """Z M^-1 Z', the p x p map from the weighted mean stack to gamma."""
    half = dense_basis(fit.restriction) @ fit.whitener
    return half @ half.T


def dense_ehw(fit) -> np.ndarray | None:
    """The p x p sandwich covariance of gamma, None before the meat is set."""
    if fit.reduced_meat is None:
        return None
    # with half = Z H, the sandwich is half (H' meat H) half'
    half = dense_basis(fit.restriction) @ fit.whitener
    return half @ (fit.whitener.T @ fit.reduced_meat @ fit.whitener) @ half.T


def gram_plus_restriction(design: CrossoverDesign, restriction: RestrictionMatrix) -> np.ndarray:
    """X'X + C'C, using the block structure sum_z N_z X_z'X_z + C'C."""
    layout = restriction.layout
    if layout.horizon != design.horizon or layout.scope != design.scope:
        raise ValueError("restriction layout does not match the design")
    c = restriction.matrix
    gram = c.T @ c
    for z, n in design.counts.items():
        sl = layout.block(z)
        gram[sl, sl] += n * np.eye(layout.horizon)
    return gram


def nullspace_restricted_wls(
    dataset: ObservedDataset, weights: WeightModel, restriction: RestrictionMatrix
) -> np.ndarray:
    """Independent equality-constrained WLS solve via the null-space method
    on fully dense matrices."""
    design = dataset.design
    x, y = dense_regressors(design, dataset)
    omega_inv = dense_omega_inverse(design, dataset, weights)
    c = restriction.matrix
    if c.shape[0]:
        basis = scipy.linalg.null_space(c)
    else:
        basis = np.eye(x.shape[1])
    xz = x @ basis
    lhs = xz.T @ omega_inv @ xz
    rhs = xz.T @ omega_inv @ y
    return basis @ np.linalg.solve(lhs, rhs)


def dense_sandwich(dataset: ObservedDataset, fit) -> np.ndarray:
    """EHW covariance assembled from fully dense matrices."""
    design = dataset.design
    x, _ = dense_regressors(design, dataset)
    omega_inv = dense_omega_inverse(design, dataset, fit.weight_model)
    horizon = design.horizon
    n = dataset.n_units
    sigma = np.zeros((n * horizon, n * horizon))
    layout = fit.layout
    for i, z in enumerate(dataset.assignments):
        rows = slice(i * horizon, (i + 1) * horizon)
        r = dataset.outcomes[i] - fit.gamma[layout.block(z)]
        sigma[rows, rows] = np.outer(r, r)
    u11 = dense_u11(fit)
    return u11 @ x.T @ omega_inv @ sigma @ omega_inv @ x @ u11


def score_meat(fit, dataset: ObservedDataset) -> np.ndarray:
    """The d x d sandwich meat from per-unit scores: S'S for the N x d
    matrix S stacking R_z G_z / N_z over the implemented sequences, R_z
    the unit residuals of z against the fitted coefficients."""
    groups = dataset.group_indices()
    weighted = fit.weighted_basis
    scores = np.concatenate([
        (dataset.outcomes[idx] - fit.gamma[fit.layout.block(z)]) @ weighted[z] / idx.size
        for z, idx in groups.items()
    ])
    return scores.T @ scores


def row_major_moments(grouped: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Per-sequence means and centered R_z'R_z of (..., N, T) outcomes
    listed sequence by sequence, reduced over the unit axis of the
    row-major stack as it is laid out (stride T): a reference for
    ``rwls.grouped_moments``, which reduces along a contiguous unit axis."""
    ys = np.split(grouped, np.cumsum(counts)[:-1], axis=-2)
    means = [y.mean(axis=-2) for y in ys]
    centered = [y - mean[..., None, :] for y, mean in zip(ys, means)]
    cross = [r.swapaxes(-1, -2) @ r for r in centered]
    return np.stack(means, axis=-2), np.stack(cross, axis=-3)


def per_sequence_oracle_variance(fit, spec, table) -> np.ndarray:
    """The exact randomization covariance summed sequence by sequence,
    sum_z M(z) S2(z) M(z)' / N_z from the implied weights M(z), less the
    individual-effect covariance over N: a reference for
    ``rwls.oracle_variance``, which forms the sum as one sandwich."""
    implied = implied_estimator_weights(fit, spec)
    total = np.zeros((spec.dimension, spec.dimension))
    for z, n in fit.design.counts.items():
        m = implied[z]
        total += m @ table.covariance(z) @ m.T / n
    return total - individual_effect_covariance(spec, table) / table.n_units


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
