"""Convex separation of a matrix into low-rank plus column-sparse parts.

``rmc_solve`` solves

    min ||L||_* + lambda ||C||_{1,2}   s.t.  Y = L + C on observed entries

by an inexact augmented-Lagrangian loop, run as a fixed-point map on Z,
which holds Y + Lam / rho on the observed entries (Lam the multiplier,
zero elsewhere) and the current estimate L + C elsewhere.  One evaluation
of the map sets L by singular value thresholding of Z - C, C by columnwise
group shrinkage of Z - L, and takes the residual R = Y - L - C on the
observed entries; it returns Z + R where observed (Lam raised by rho times
R) and L + C elsewhere, and its C is the next evaluation's.  The loop
stops once that residual, relative to ||Y||_F, is at most TOL_RESIDUAL;
this one test also decides ``converged``.  The penalty starts at
RHO_SCALE / ||Y|| (operator norm, unobserved entries zeroed) and is
multiplied by RHO_GROWTH whenever the residual falls by less than 3% in an
iteration (STALL_GATE).  On masked problems the rank and the outlier
support settle early and the residual then falls by one or two percent an
iteration, so a 1% gate lets the penalty stall and the solve run into
MAX_ITERS; a looser gate than 3% grows the penalty so fast that the
residual test passes before the learned subspace is accurate.  The
residual stays the stop because a duality-gap stop loose enough to save
iterations ends before the inlier columns are annihilated to the precision
the pipelines read.  The loop runs on Y divided by the smallest power of
two above its largest absolute entry, so the iterates and the stop do not
depend on the input's scale; that division is the solve's one scale rule.
``outlier_pursuit`` is the same solve with every entry observed.  The
solve holds the unobserved entries as flat indices, taken once from the
mask: the passes that zero the residual or fill in the estimate there
write those entries only and never read the data at them, so a full mask
costs no pass at all.  The loop calls ``prox._svt`` and
``prox._group_shrink``, which scale nothing, with thresholds positive by
construction.  ``as_mask`` is the package's rule for an observation mask.

Once the rank and the support settle, the map is locally linear (Poon &
Liang 2019), and the loop extrapolates Z over it by type-II Anderson
acceleration (Walker & Ni 2011): the next Z is the map's output minus the
combination of the last AA_MEMORY (8) output differences whose step
differences best cancel the current step, found from their Gram matrix.
C is not mixed; it follows Z through the map.  A growing penalty changes
the map, so it rescales the Lam / rho part of Z and restarts the memory,
as does a singular Gram matrix (the step is then the plain one).  The
returned (L, C) is always a map evaluation, never an extrapolated point,
so the residual test certifies what is returned.  Masked solves at an
observation rate of 0.7 take about 210 plain steps and 54 accelerated ones.

Each result also reports, without acting on it, the relative duality gap
of its final iterate: (L, C + R) is exactly feasible, and Lam / max(1,
||Lam||_2, max_j ||Lam_j|| / lambda) is dual feasible.  The gap is computed
when ``OpSolution.gap`` is first read, from arrays the solve kept, so a
caller that never reads it pays nothing for it.  A solve that passes
the residual test can carry a gap up to about 8e-5 at an observation rate
of 0.7, and up to about 1.3e-3 at 0.5 with its objective within 3e-6 of
the optimum (``scripts/separation_study.py`` measures these): once the
penalty is large, the multiplier lags the accurate primal iterate.

``subspace_basis`` extracts an orthonormal basis of the recovered column
space, of the numerical rank, or cut at the largest singular-value gap
when the estimate has full numerical rank (noise that the separation put
into L).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .prox import _group_shrink, _svt, as_real

__all__ = ["AA_MEMORY", "DIVERGE_PATIENCE", "GAP_RATIO", "MAX_ITERS", "RHO_GROWTH", "RHO_SCALE",
           "STALL_GATE", "TOL_RESIDUAL", "OpSolution", "SolverDivergenceError", "SubspaceBasis",
           "as_mask", "outlier_pursuit", "rmc_solve", "subspace_basis"]


class SolverDivergenceError(RuntimeError):
    """Raised when the primal residual grows for too many iterations."""


#: Stopping rule: relative constraint residual on the observed entries.
TOL_RESIDUAL = 1e-7
MAX_ITERS = 500
#: Initial penalty RHO_SCALE / ||Y||_2, grown by RHO_GROWTH whenever the
#: residual fails to drop below STALL_GATE times its previous value, that
#: is, falls by less than 3% (the module docstring gives the reason).
RHO_SCALE = 1.25
RHO_GROWTH = 1.6
STALL_GATE = 0.97
#: Anderson acceleration mixes the last AA_MEMORY steps of the iteration.
AA_MEMORY = 8
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
    pos = np.sort(values[values > 0])[::-1]
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
    if pos.size < values.size and best <= GAP_RATIO:
        return np.inf, int(pos.size)
    return best, count


@dataclass(frozen=True)
class OpSolution:
    """Recovered pair (L, C) with convergence diagnostics.

    (L, C) is the last evaluation of the separation map, taken at a
    possibly Anderson-extrapolated state, and ``iterations`` counts the map
    evaluations.  ``residual`` is the relative constraint violation
    ||Y - L - C||_F / ||Y||_F on the observed entries.  ``gap`` is the
    relative duality gap of the final iterate (see the module docstring):
    a report only, which neither stops the loop nor decides ``converged``.
    It is computed from ``_gap_terms``, the arguments of ``_duality_gap``,
    when first read, and is 0 when there are none (an all-zero input).
    """

    low_rank: np.ndarray = field(repr=False)
    column_sparse: np.ndarray = field(repr=False)
    residual: float
    iterations: int
    converged: bool
    degenerate: bool
    _gap_terms: tuple = field(default=(), repr=False)

    @cached_property
    def gap(self) -> float:
        return _duality_gap(*self._gap_terms) if self._gap_terms else 0.0


def as_mask(mask: np.ndarray, shape: tuple) -> np.ndarray:
    """An observation mask of the data's ``shape`` as a boolean array (true
    = observed).  A boolean array passes as is; any other must be real and
    hold exactly 0 or 1, or ValueError is raised: 0.5, NaN or -1 observe
    nothing and hide nothing.  Another shape raises ValueError too."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        if np.iscomplexobj(mask) or not ((mask == 0) | (mask == 1)).all():
            raise ValueError("mask entries must be exactly 0 or 1, and real")
        mask = mask == 1
    if mask.shape != shape:
        raise ValueError("mask shape %s must match the data's %s" % (mask.shape, shape))
    return mask


def outlier_pursuit(Y: np.ndarray, lam: float) -> OpSolution:
    """Separate Y into low-rank and column-sparse parts under an exact
    decomposition constraint: ``rmc_solve`` with every entry observed."""
    return rmc_solve(Y, np.ones(np.shape(Y), dtype=bool), lam)


def rmc_solve(Y_obs: np.ndarray, mask: np.ndarray, lam: float) -> OpSolution:
    """Separate the matrix Y into low-rank and column-sparse parts, enforcing
    Y = L + C only on entries where mask is true (``as_mask``); unobserved
    entries of Y_obs are never read or checked (||Y|| counts them as
    zeros).  ``converged`` means the residual test passed within MAX_ITERS
    iterations.  With fewer observed entries than n1 + n2 - 1 the solution
    is not unique and the result is flagged degenerate (converged stays
    false; the residual certificate is still reported)."""
    Y_obs = as_real(Y_obs, "data", ndim=2, finite=False)
    mask = as_mask(mask, Y_obs.shape)
    if not mask.any():
        raise ValueError("mask must observe at least one entry")
    if not np.all(np.isfinite(Y_obs[mask])):
        raise ValueError("observed entries of the data must be finite")
    if not 0 < lam < np.inf:
        raise ValueError("lambda must be positive and finite, got %r" % (lam,))
    Y = np.where(mask, Y_obs, 0.0)
    hidden = np.flatnonzero(~mask)
    degenerate = int(mask.sum()) < sum(Y.shape) - 1
    if not Y.any():
        return OpSolution(np.zeros_like(Y), np.zeros_like(Y), 0.0, 0, not degenerate, degenerate)
    # Solve at unit scale: dividing by a power of two is exact, and it keeps
    # the squared norms of the stopping rule from overflowing or underflowing.
    e = np.frexp(np.max(np.abs(Y)))[1]
    Y = np.ldexp(Y, -e)
    normY = np.linalg.norm(Y, "fro")
    rho = RHO_SCALE / np.linalg.norm(Y, 2)
    # Z starts at Y (Lam = 0).  G is the map's output and F = G - Z its step;
    # dF and dG are rings of their differences, H is the Gram of the dF held.
    Z, C = Y, np.zeros_like(Y)
    dF = np.empty((AA_MEMORY, Y.size))
    dG = np.empty_like(dF)
    H = np.empty((AA_MEMORY, AA_MEMORY))
    rhs = np.zeros(AA_MEMORY)
    F_prev = G_prev = None
    held = slot = 0
    res_prev = np.inf
    bad = 0
    for it in range(1, MAX_ITERS + 1):
        L = _svt(Z - C, 1.0 / rho)
        C = _group_shrink(Z - L, lam / rho)
        LC = L + C
        R = Y - LC
        np.put(R, hidden, 0.0)
        r = R.ravel()
        res = math.sqrt(r @ r) / normY
        G = Z + R
        np.put(G, hidden, LC.take(hidden))
        bad = bad + 1 if res > res_prev else 0
        if bad >= DIVERGE_PATIENCE:
            raise SolverDivergenceError(
                "residual increased for %d consecutive iterations" % bad
            )
        if res <= TOL_RESIDUAL:
            break
        if res > STALL_GATE * res_prev:
            # Z holds Lam / rho where observed: rescale it to the new
            # penalty, and forget the steps taken under the old one
            rho_old, rho = rho, rho * RHO_GROWTH
            Z = Y + (G - Y) * (rho_old / rho)
            np.put(Z, hidden, G.take(hidden))
            G, F_prev, held, slot = Z, None, 0, 0
            res_prev = res
            continue
        res_prev = res
        F = (G - Z).ravel()
        if F_prev is not None:
            np.subtract(F, F_prev, out=dF[slot])
            np.subtract(G.ravel(), G_prev, out=dG[slot])
            held = min(held + 1, AA_MEMORY)
            h = dF[:held] @ dF[slot]
            H[slot, :held] = H[:held, slot] = h
            # rhs holds dF^T F_prev, and F = F_prev + dF[slot]
            rhs[:held] += h
            rhs[slot] = dF[slot] @ F
            slot = (slot + 1) % AA_MEMORY
        F_prev, G_prev = F, G.ravel()
        Z = G
        if held:
            # type-II Anderson: G minus the combination of past G steps
            # whose F steps best cancel F
            try:
                gamma = np.linalg.solve(H[:held, :held], rhs[:held])
            except np.linalg.LinAlgError:
                F_prev, held, slot = None, 0, 0
            else:
                Z = G - (gamma @ dG[:held]).reshape(G.shape)
    Lam = rho * (G - Y)
    np.put(Lam, hidden, 0.0)
    converged = bool(res <= TOL_RESIDUAL) and not degenerate
    return OpSolution(np.ldexp(L, e), np.ldexp(C, e), res, it, converged, degenerate,
                      (Y, L, C + R, Lam, lam))


def _duality_gap(Y: np.ndarray, L: np.ndarray, C: np.ndarray, Lam: np.ndarray, lam: float) -> float:
    """Relative gap between the objective of the feasible pair (L, C) and
    the dual bound of the multiplier Lam, scaled into the dual feasible set.
    Lam is zero off the observed entries, where Y is zero too."""
    primal = np.linalg.svd(L, compute_uv=False).sum() + lam * np.linalg.norm(C, axis=0).sum()
    scale = max(1.0, np.linalg.norm(Lam, 2), np.max(np.linalg.norm(Lam, axis=0)) / lam)
    return float((primal - np.vdot(Lam, Y) / scale) / primal)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a recovered column space."""

    basis: np.ndarray = field(repr=False)
    dim: int
    energy_kept: float

    def project_out(self, X: np.ndarray) -> np.ndarray:
        """Residual after removing the component inside the subspace (a new
        array), for a real, finite vector or matrix X with a row per basis
        row; ValueError otherwise."""
        X = as_real(X, "X")
        if X.ndim not in (1, 2) or X.shape[0] != self.basis.shape[0]:
            raise ValueError("X must be a vector or matrix of %d rows, got shape %s"
                             % (self.basis.shape[0], X.shape))
        return X - self.basis @ (self.basis.T @ X)


def subspace_basis(X: np.ndarray) -> SubspaceBasis:
    """Basis of the column span of X, typically a low-rank estimate.

    Every singular value above the numerical-rank cutoff max(m, n) * eps *
    sigma_1 is kept.  If all of them pass, X has full numerical rank and
    its trailing singular values are likely noise, so the basis is cut after
    sigma_d at the largest ratio sigma_d / sigma_(d+1), provided that ratio
    exceeds GAP_RATIO.
    """
    X = as_real(X, "X", ndim=2)
    # A full SVD, not _svt's Gram eigendecomposition: the rank cutoff below
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
