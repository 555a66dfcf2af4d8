"""Convex separation of a matrix into low-rank plus column-sparse parts.

``outlier_pursuit`` solves

    min ||L||_* + lambda ||C||_{1,2}   s.t.  Y = L + C

by an augmented-Lagrangian alternating scheme: L-update by singular value
thresholding, C-update by columnwise group shrinkage, dual ascent on the
constraint.  The penalty starts at RHO_SCALE / ||Y|| (operator norm) and
is multiplied by RHO_GROWTH whenever the primal residual stalls.
``rmc_solve`` is the masked variant with the equality enforced only on
observed entries, leaving the unobserved entries of L + C free; both run
the same loop with the same constants.

``subspace_basis`` extracts an orthonormal basis of the recovered column
space, optionally truncated to the smallest leading set of singular values
holding a given fraction of the nuclear energy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .prox import group_shrink, svt


class SolverDivergenceError(RuntimeError):
    """Raised when the primal residual grows for too many iterations."""


#: Stopping rule: relative constraint residual and relative iterate change.
TOL_RESIDUAL = 1e-7
TOL_CHANGE = 1e-6
MAX_ITERS = 500
#: Initial penalty RHO_SCALE / ||Y||_2, grown by RHO_GROWTH whenever the
#: residual fails to drop below STALL_GATE times its previous value.
RHO_SCALE = 1.25
RHO_GROWTH = 1.6
STALL_GATE = 0.99
#: Consecutive residual increases tolerated before declaring divergence.
DIVERGE_PATIENCE = 10


@dataclass
class OpSolution:
    """Recovered pair (L, C) with convergence diagnostics.

    ``residual`` is the relative constraint violation ||Y - L - C||_F /
    ||Y||_F (restricted to observed entries for the masked variant).
    """

    low_rank: np.ndarray = field(repr=False)
    column_sparse: np.ndarray = field(repr=False)
    residual: float
    iterations: int
    converged: bool
    degenerate: bool = False


def default_lambda(k_ub: int) -> float:
    """Column-sparsity weight 3 / (7 sqrt(k_ub)) for an outlier-count upper
    bound k_ub."""
    if k_ub < 1:
        raise ValueError("outlier upper bound must be at least 1")
    return 3.0 / (7.0 * math.sqrt(k_ub))


def _split_iterations(Y, lam, mask=None):
    """Shared splitting loop; with a mask, unobserved entries are free."""
    normY = np.linalg.norm(Y, "fro")
    rho = RHO_SCALE / np.linalg.norm(Y, 2)
    L = np.zeros_like(Y)
    C = np.zeros_like(Y)
    E = np.zeros_like(Y)
    Lam = np.zeros_like(Y)
    res_prev = np.inf
    bad = 0
    for it in range(1, MAX_ITERS + 1):
        L_new = svt(Y - C - E + Lam / rho, 1.0 / rho)
        C_new = group_shrink(Y - L_new - E + Lam / rho, lam / rho)
        if mask is not None:
            E = np.where(mask, 0.0, Y - L_new - C_new + Lam / rho)
        R = Y - L_new - C_new - E
        res = np.linalg.norm(R, "fro") / normY
        change = (
            np.linalg.norm(L_new - L, "fro") + np.linalg.norm(C_new - C, "fro")
        ) / max(1.0, normY)
        L, C = L_new, C_new
        Lam = Lam + rho * R
        bad = bad + 1 if res > res_prev else 0
        if bad >= DIVERGE_PATIENCE:
            raise SolverDivergenceError(
                "residual increased for %d consecutive iterations" % bad
            )
        if res > STALL_GATE * res_prev:
            rho *= RHO_GROWTH
        res_prev = res
        if res <= TOL_RESIDUAL and change <= TOL_CHANGE:
            return L, C, res, it, True
    return L, C, res, MAX_ITERS, False


def outlier_pursuit(Y: np.ndarray, lam: float) -> OpSolution:
    """Separate Y into low-rank and column-sparse parts under an exact
    decomposition constraint."""
    Y = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise ValueError("input matrix must be finite")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not Y.any():
        return OpSolution(np.zeros_like(Y), np.zeros_like(Y), 0.0, 0, True)
    L, C, res, it, conv = _split_iterations(Y, lam)
    return OpSolution(L, C, res, it, conv)


def rmc_solve(Y_obs: np.ndarray, mask: np.ndarray, lam: float) -> OpSolution:
    """Masked variant: enforce Y = L + C only on entries where mask is
    true.  With fewer observed entries than n1 + n2 - 1 the solution is
    not unique and the result is flagged degenerate (converged stays
    false; the residual certificate is still reported)."""
    mask = np.asarray(mask, dtype=bool)
    Y_obs = np.asarray(Y_obs, dtype=float)
    if mask.shape != Y_obs.shape:
        raise ValueError("mask shape must match the data")
    if not mask.any():
        raise ValueError("mask must observe at least one entry")
    if not np.all(np.isfinite(Y_obs[mask])):
        raise ValueError("observed entries must be finite")
    Y = np.where(mask, Y_obs, 0.0)
    degenerate = int(mask.sum()) < sum(Y.shape) - 1
    if not Y.any():
        return OpSolution(np.zeros_like(Y), np.zeros_like(Y), 0.0, 0, not degenerate, degenerate)
    # a full mask keeps the free part E at exactly zero, so the iteration
    # then matches the unmasked solver bit for bit
    L, C, res, it, conv = _split_iterations(Y, lam, mask=mask)
    if degenerate:
        conv = False
    return OpSolution(L, C, res, it, conv, degenerate)


@dataclass
class SubspaceBasis:
    """Orthonormal basis of a recovered column space."""

    basis: np.ndarray = field(repr=False)
    dim: int
    energy_kept: float

    def project_out(self, X: np.ndarray) -> np.ndarray:
        """Residual after removing the component inside the subspace."""
        if self.dim == 0:
            return np.array(X, copy=True)
        return X - self.basis @ (self.basis.T @ X)


def subspace_basis(sol, energy: float = 1.0) -> SubspaceBasis:
    """Basis of the span of the low-rank estimate.

    With energy = 1 every singular value above the numerical-rank cutoff
    max(m, n) * eps * sigma_1 is kept; otherwise the smallest number d of
    leading singular values with sigma_1 + ... + sigma_d >= energy * total
    is kept.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    X = sol.low_rank if hasattr(sol, "low_rank") else np.asarray(sol, dtype=float)
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    total = float(s.sum())
    if total == 0.0:
        warnings.warn("zero matrix has an empty column space", RuntimeWarning)
        return SubspaceBasis(U[:, :0], 0, 1.0)
    if energy >= 1.0:
        cutoff = max(X.shape) * np.finfo(float).eps * s[0]
        d = int(np.sum(s > cutoff))
    else:
        cum = np.cumsum(s)
        d = int(np.searchsorted(cum, energy * total - 1e-15 * total) + 1)
    d = max(d, 1)
    kept = float(np.sum(s[:d])) / total
    return SubspaceBasis(U[:, :d], d, kept)

