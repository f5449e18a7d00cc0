"""Independent reference computations that gate every benchmark operation.

The oracle never calls the package's solver, restriction assembly or
identification check.  It builds the null-space basis Z of the scenario's
coefficient restrictions directly from the assumption classes, solves the
restricted weighted least squares problem in that basis, and derives the
identification verdict from the basis alone, so the verdict does not
depend on unit counts.  Estimand specs, designs and outcome tables are
inputs here, not answers, and may come from the package.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass

import numpy as np

GAMMA_TOLERANCE = 1e-6
RESIDUAL_TOLERANCE = 1e-9
EXACT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Check:
    """Outcome of one comparison against the oracle."""

    ok: bool
    detail: str = ""


def _words(horizon: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("AB", repeat=horizon)]


def class_basis(horizon: int, scenario: str, order: int | None) -> np.ndarray:
    """Basis of the coefficients allowed by a scenario over the full 2^T scope.

    Columns of the coefficient vector are sequence-major, periods inside
    each sequence block, with sequences in lexicographic order.  Scenario a
    equates period-t coefficients sharing the length-t prefix; scenario b
    equates those sharing the trailing window of length k (the prefix for
    t <= k); scenario c writes every period-t coefficient with t >= k as a
    period level plus a time-constant window effect.
    """
    words = _words(horizon)
    p = horizon * len(words)
    if scenario in ("a", "b"):
        keys: dict[tuple[int, str], int] = {}
        z_mat = []
        for i, word in enumerate(words):
            for t in range(1, horizon + 1):
                start = 0 if scenario == "a" else max(0, t - order)
                key = (t, word[start:t])
                column = keys.setdefault(key, len(keys))
                z_mat.append((i * horizon + t - 1, column))
        basis = np.zeros((p, len(keys)))
        for row, column in z_mat:
            basis[row, column] = 1.0
        return basis
    if scenario != "c":
        raise ValueError(f"unknown scenario {scenario!r}")
    generators: dict[tuple, int] = {}
    entries = []
    for i, word in enumerate(words):
        for t in range(1, horizon + 1):
            row = i * horizon + t - 1
            if t < order:
                entries.append((row, generators.setdefault(("prefix", t, word[:t]), len(generators))))
            else:
                entries.append((row, generators.setdefault(("level", t), len(generators))))
                entries.append((row, generators.setdefault(("effect", word[t - order : t]), len(generators))))
    spanning = np.zeros((p, len(generators)))
    for row, column in entries:
        spanning[row, column] = 1.0
    u, s, _ = np.linalg.svd(spanning, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank]


def _blocks(horizon: int, sequence: str) -> slice:
    index = int(sequence.replace("A", "0").replace("B", "1"), 2)
    return slice(index * horizon, (index + 1) * horizon)


def identifiable(basis: np.ndarray, horizon: int, observed) -> bool:
    """Every estimand is estimable iff the basis rows of the implemented
    sequences' coefficients have full column rank.  Unit counts play no part."""
    rows = np.vstack([basis[_blocks(horizon, str(z))] for z in observed])
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > 1e-10 * max(s[0], 1.0))) == basis.shape[1]


def mean_identified(scenario: str, order: int, target: str, period: int, observed) -> bool:
    """Scenario a/b per-mean verdict: the (period, target) coefficient's
    class holds an implemented sequence."""
    start = 0 if scenario == "a" else max(0, period - order)
    key = target[start:period]
    return any(str(z)[start:period] == key for z in observed)


def group_statistics(outcomes: np.ndarray, labels) -> dict[str, tuple[int, np.ndarray, np.ndarray]]:
    """Count, mean vector and sample covariance (divisor n - 1) per label."""
    labels = np.asarray([str(z) for z in labels])
    stats = {}
    for z in sorted(set(labels)):
        y = outcomes[labels == z]
        centered = y - y.mean(axis=0)
        cov = centered.T @ centered / max(y.shape[0] - 1, 1)
        stats[z] = (y.shape[0], y.mean(axis=0), cov)
    return stats


@dataclass(frozen=True)
class OracleFit:
    gamma: np.ndarray
    u11: np.ndarray
    basis: np.ndarray


def restricted_wls(horizon: int, basis: np.ndarray, counts, means, weights) -> OracleFit:
    """The null-space form of the restricted fit, gamma = Z beta with beta
    minimizing sum_z N_z |L_z^-1 (ybar_z - Z_z beta)|^2, where W_z = L_z L_z'.

    The whitened least-squares problem is solved by QR, which never forms
    Z'AZ and so does not square its condition number; repaired weight
    blocks make that number reach 1e7.  U11 = Z (Z'AZ)^-1 Z' = Z R^-1 R^-T Z'.
    """
    rows, rhs = [], []
    for z, n in counts.items():
        chol = np.linalg.cholesky(weights[str(z)])
        root = np.sqrt(n)
        rows.append(root * np.linalg.solve(chol, basis[_blocks(horizon, str(z))]))
        rhs.append(root * np.linalg.solve(chol, np.asarray(means[str(z)], dtype=float)))
    q, r = np.linalg.qr(np.vstack(rows))
    beta = np.linalg.solve(r, q.T @ np.concatenate(rhs))
    spread = basis @ np.linalg.inv(r)
    return OracleFit(basis @ beta, spread @ spread.T, basis)


def estimand_matrix(spec, horizon: int) -> np.ndarray:
    """Dense K x p matrix of a spec over the full 2^T scope."""
    b = np.zeros((spec.dimension, horizon * 2**horizon))
    for z, w in spec.weights.items():
        b[:, _blocks(horizon, str(z))] = w
    return b


def restricted_rows(b: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows whose functional vanishes on every allowed coefficient vector."""
    scale = np.maximum(np.abs(b).max(axis=1), 1.0)
    return np.abs(b @ basis).max(axis=1) <= 1e-12 * scale


def close(value, reference, tolerance: float) -> Check:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if value.shape != reference.shape:
        return Check(False, f"shape {value.shape} != {reference.shape}")
    err = float(np.abs(value - reference).max()) if value.size else 0.0
    scale = 1.0 + (float(np.abs(reference).max()) if reference.size else 0.0)
    if not np.all(np.isfinite(value)) or err > tolerance * scale:
        return Check(False, f"max deviation {err:.3e} exceeds {tolerance:.0e} x {scale:.3g}")
    return Check(True)


def check_gamma(gamma, reference: OracleFit) -> Check:
    return close(gamma, reference.gamma, GAMMA_TOLERANCE)


def check_verdict(program_identifiable: bool, oracle_identifiable: bool) -> Check:
    if program_identifiable != oracle_identifiable:
        return Check(
            False,
            f"program says {'identifiable' if program_identifiable else 'not identifiable'}, "
            f"oracle says {'identifiable' if oracle_identifiable else 'not identifiable'}",
        )
    return Check(True)


def check_restriction(matrix: np.ndarray, basis: np.ndarray, gamma) -> Check:
    """The program's restriction rows annihilate the oracle basis, have the
    complementary rank, and hold on the fitted gamma."""
    p = basis.shape[0]
    if matrix.shape != (p - basis.shape[1], p):
        return Check(False, f"restriction shape {matrix.shape}, expected {(p - basis.shape[1], p)}")
    if matrix.shape[0]:
        leak = float(np.abs(matrix @ basis).max())
        if leak > 1e-9:
            return Check(False, f"restriction rows leak {leak:.3e} into the allowed space")
        residual = float(np.abs(matrix @ gamma).max())
        if residual > RESIDUAL_TOLERANCE * (1.0 + float(np.abs(gamma).max())):
            return Check(False, f"restriction residual {residual:.3e}")
    return Check(True)


def check_sample_weight(weight: np.ndarray, sample_cov: np.ndarray) -> Check:
    """A sample-covariance weight is the sample covariance plus c I, c >= 0."""
    diff = np.asarray(weight) - sample_cov
    scale = 1e-9 * (1.0 + float(np.abs(sample_cov).max()))
    lift = np.diag(diff)
    off = diff - np.diag(lift)
    if np.abs(off).max() > scale or np.ptp(lift) > scale or lift.min() < -scale:
        return Check(False, "weight is not the sample covariance plus a multiple of I")
    return Check(True)


def ehw_variances(horizon, fit: OracleFit, b: np.ndarray, groups, weights) -> np.ndarray:
    """Diagonal of B U11 meat U11 B' with meat = diag(W^-1 R'R W^-1)."""
    p = fit.basis.shape[0]
    meat = np.zeros((p, p))
    for z, residuals in groups.items():
        sl = _blocks(horizon, z)
        w_inv = np.linalg.inv(weights[z])
        r = residuals - fit.gamma[sl]
        meat[sl, sl] = w_inv @ (r.T @ r) @ w_inv
    bu = b @ fit.u11
    return np.einsum("ij,jk,ik->i", bu, meat, bu)


def normal_quantile(level: float) -> float:
    return statistics.NormalDist().inv_cdf(0.5 + level / 2.0)


def table_truth(b: np.ndarray, table) -> np.ndarray:
    horizon = table.horizon
    stacked = np.zeros(b.shape[1])
    for z, y in table.outcomes.items():
        stacked[_blocks(horizon, str(z))] = y.mean(axis=0)
    return b @ stacked


def multinomial(counts) -> int:
    total = math.factorial(sum(counts))
    for n in counts:
        total //= math.factorial(n)
    return total
