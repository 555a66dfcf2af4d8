"""Convex separation of a matrix into low-rank plus column-sparse parts.

``rmc_solve`` solves

    min ||L||_* + lambda ||C||_{1,2}   s.t.  Y = L + C on observed entries

by an inexact augmented-Lagrangian loop on L, C and the multiplier Lam.
Each iteration fills the unobserved entries with the current estimate,
Z = Y + Lam / rho where observed and L + C elsewhere, then sets L by
singular value thresholding of Z - C, C by columnwise group shrinkage of
Z - L, and raises Lam by rho times the residual Y - L - C on the observed
entries (Lam stays zero elsewhere).  The loop stops once that residual,
relative to ||Y||_F, is at most TOL_RESIDUAL; this one test also decides
``converged``.  The penalty starts at RHO_SCALE / ||Y|| (operator norm,
unobserved entries zeroed) and is multiplied by RHO_GROWTH whenever the
residual stalls.  The loop runs on Y divided by the smallest power of two
above its largest absolute entry, so the iterates and the stop do not
depend on the input's scale.  ``outlier_pursuit`` is the same solve with
every entry observed.

``subspace_basis`` extracts an orthonormal basis of the recovered column
space, of the numerical rank, or cut at the largest singular-value gap
when the estimate has full numerical rank (noise that the separation put
into L).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .prox import group_shrink, svt


class SolverDivergenceError(RuntimeError):
    """Raised when the primal residual grows for too many iterations."""


#: Stopping rule: relative constraint residual on the observed entries.
TOL_RESIDUAL = 1e-7
MAX_ITERS = 500
#: Initial penalty RHO_SCALE / ||Y||_2, grown by RHO_GROWTH whenever the
#: residual fails to drop below STALL_GATE times its previous value.
RHO_SCALE = 1.25
RHO_GROWTH = 1.6
STALL_GATE = 0.99
#: Consecutive residual increases tolerated before declaring divergence.
DIVERGE_PATIENCE = 10
#: Minimum multiplicative separation for a gap to count: between declared
#: and undeclared scores (pipeline), and between kept and dropped singular
#: values of a full-rank estimate (subspace_basis).
GAP_RATIO = 10.0


def _gap_cut(values: np.ndarray) -> tuple[float, int]:
    """Largest-gap rule: (gap ratio, count of values above the gap).

    The cut is placed at the largest multiplicative gap between consecutive
    positive values in sorted order.  When exact zeros are present and no
    positive-internal gap exceeds GAP_RATIO, the positive/zero boundary is
    the cut and the ratio is infinite (a cleanly thresholded solution).
    Score vectors and full-rank spectra (``subspace_basis``) share it.
    """
    s = np.sort(values)[::-1]
    pos = s[s > 0]
    if pos.size == 0:
        return 0.0, 0
    best, count = 0.0, 1
    if pos.size >= 2:
        # a quotient beyond the float range is a gap of infinite ratio, the
        # correct limit here; log-space gaps could flip near-GAP_RATIO ties
        with np.errstate(over="ignore"):
            ratios = pos[:-1] / pos[1:]
        cut = int(np.argmax(ratios))
        best, count = float(ratios[cut]), cut + 1
    if pos.size < s.size and best <= GAP_RATIO:
        return np.inf, int(pos.size)
    return best, count


@dataclass(frozen=True)
class OpSolution:
    """Recovered pair (L, C) with convergence diagnostics.

    ``residual`` is the relative constraint violation ||Y - L - C||_F /
    ||Y||_F on the observed entries.
    """

    low_rank: np.ndarray = field(repr=False)
    column_sparse: np.ndarray = field(repr=False)
    residual: float
    iterations: int
    converged: bool
    degenerate: bool = False


def default_lambda(k: int) -> float:
    """Column-sparsity weight 3 / (7 sqrt(k)) for an outlier-count upper
    bound k."""
    if k < 1:
        raise ValueError("outlier upper bound must be at least 1")
    return 3.0 / (7.0 * math.sqrt(k))


def outlier_pursuit(Y: np.ndarray, lam: float) -> OpSolution:
    """Separate Y into low-rank and column-sparse parts under an exact
    decomposition constraint: ``rmc_solve`` with every entry observed."""
    return rmc_solve(Y, np.ones(np.shape(Y), dtype=bool), lam)


def rmc_solve(Y_obs: np.ndarray, mask: np.ndarray, lam: float) -> OpSolution:
    """Separate Y into low-rank and column-sparse parts, enforcing Y = L + C
    only on entries where mask is true; unobserved entries of Y_obs are
    never read (||Y|| counts them as zeros).  ``converged`` means the
    residual test passed within MAX_ITERS iterations.  With fewer observed
    entries than n1 + n2 - 1 the solution is not unique and the result is
    flagged degenerate (converged stays false; the residual certificate is
    still reported)."""
    mask = np.asarray(mask, dtype=bool)
    Y_obs = np.asarray(Y_obs, dtype=float)
    if mask.shape != Y_obs.shape:
        raise ValueError("mask shape must match the data")
    if not mask.any():
        raise ValueError("mask must observe at least one entry")
    if not np.all(np.isfinite(Y_obs[mask])):
        raise ValueError("observed entries must be finite")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    Y = np.where(mask, Y_obs, 0.0)
    degenerate = int(mask.sum()) < sum(Y.shape) - 1
    if not Y.any():
        return OpSolution(np.zeros_like(Y), np.zeros_like(Y), 0.0, 0, not degenerate, degenerate)
    # Solve at unit scale: dividing by a power of two is exact, and it keeps
    # the squared norms of the stopping rule from overflowing or underflowing.
    e = np.frexp(np.max(np.abs(Y)))[1]
    Y = np.ldexp(Y, -e)
    normY = np.linalg.norm(Y, "fro")
    rho = RHO_SCALE / np.linalg.norm(Y, 2)
    L = np.zeros_like(Y)
    C = np.zeros_like(Y)
    Lam = np.zeros_like(Y)
    res_prev = np.inf
    bad = 0
    for it in range(1, MAX_ITERS + 1):
        Z = np.where(mask, Y + Lam / rho, L + C)
        L = svt(Z - C, 1.0 / rho)
        C = group_shrink(Z - L, lam / rho)
        R = np.where(mask, Y - L - C, 0.0)
        res = np.linalg.norm(R, "fro") / normY
        Lam += rho * R
        bad = bad + 1 if res > res_prev else 0
        if bad >= DIVERGE_PATIENCE:
            raise SolverDivergenceError(
                "residual increased for %d consecutive iterations" % bad
            )
        if res <= TOL_RESIDUAL:
            break
        if res > STALL_GATE * res_prev:
            rho *= RHO_GROWTH
        res_prev = res
    converged = bool(res <= TOL_RESIDUAL) and not degenerate
    return OpSolution(np.ldexp(L, e), np.ldexp(C, e), res, it, converged, degenerate)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a recovered column space."""

    basis: np.ndarray = field(repr=False)
    dim: int
    energy_kept: float

    def project_out(self, X: np.ndarray) -> np.ndarray:
        """Residual after removing the component inside the subspace (a new array)."""
        return X - self.basis @ (self.basis.T @ X)


def subspace_basis(X: np.ndarray) -> SubspaceBasis:
    """Basis of the column span of X, typically a low-rank estimate.

    Every singular value above the numerical-rank cutoff max(m, n) * eps *
    sigma_1 is kept.  If all of them pass, X has full numerical rank and
    its trailing singular values are likely noise, so the basis is cut after
    sigma_d at the largest ratio sigma_d / sigma_(d+1), provided that ratio
    exceeds GAP_RATIO.
    """
    X = np.asarray(X, dtype=float)
    # A full SVD, not svt's Gram eigendecomposition: the rank cutoff below
    # lies far under the sqrt(eps) * sigma_1 that Gram eigenvalues resolve.
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    total = float(s.sum())
    if total == 0.0:
        warnings.warn("zero matrix has an empty column space", RuntimeWarning)
        return SubspaceBasis(U[:, :0], 0, 1.0)
    d = int(np.sum(s > max(X.shape) * np.finfo(float).eps * s[0]))
    if d == s.size > 1:
        # every value is positive here, so the rule cuts between two of them
        ratio, count = _gap_cut(s)
        if ratio > GAP_RATIO:
            d = count
    return SubspaceBasis(U[:, :d], d, float(np.sum(s[:d])) / total)
