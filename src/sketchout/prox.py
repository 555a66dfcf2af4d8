"""Proximal operators and the accelerated LASSO solver.

The three proximal maps (elementwise soft threshold for the l1 norm,
singular value thresholding for the nuclear norm, columnwise group
shrinkage for the sum of column l2 norms) are the building blocks of the
splitting solvers.  ``svt`` thresholds through the eigendecomposition of
the smaller Gram matrix rather than a full SVD, with the matrix divided by
its largest absolute entry first so that squaring it cannot overflow or
underflow; its docstring gives the accuracy.  ``lasso_path_solve`` is the
one LASSO entry point: a FISTA iteration with function-value restart and
step size 1/L, L = sigma_max(D)^2 computed exactly as the largest
eigenvalue of the smaller Gram matrix, run along a path of regularization
weights sharing one design matrix (a single weight is a path of length 1).
The path is solved by continuation: largest weight first, each point
warm-started from the previous point's solution and stopped on its own
tolerance.
"""

from __future__ import annotations

import numpy as np


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """sign(v) * max(|v| - tau, 0), elementwise."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def svt(X: np.ndarray, tau: float) -> np.ndarray:
    """Shrink the singular values of X by tau (prox of tau * nuclear norm).

    Computed from the smaller Gram matrix G (X X^T when X has no more rows
    than columns, else X^T X): with G = U diag(w) U^T and s = sqrt(max(w, 0)),
    the result is U_k diag(1 - tau / s_k) U_k^T X over the s_k > tau (mirrored
    for tall X).  This is a spectral function of G, so repeated singular
    values need no right singular vectors.  X is divided by its largest
    absolute entry c before G is formed and s is multiplied back by c, so the
    result is equally accurate at every finite scale of X and tau.  The
    eigenvalues of G carry an absolute error of order eps * sigma_1^2, so a
    singular value s is resolved to about eps * sigma_1^2 / s: the result
    agrees with an SVD-based threshold to rounding when the singular values
    near tau lie well above sqrt(eps) * sigma_1, and is exactly zero when tau
    is at least the largest computed singular value.  Non-finite entries
    raise ValueError.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    X = np.asarray(X, dtype=float)
    c = float(np.max(np.abs(X), initial=0.0))
    if not np.isfinite(c):
        raise ValueError("matrix entries must be finite")
    if c == 0.0:
        return np.zeros_like(X)
    Xs = X / c
    wide = X.shape[0] <= X.shape[1]
    w, U = np.linalg.eigh(Xs @ Xs.T if wide else Xs.T @ Xs)
    s = np.sqrt(np.maximum(w, 0.0))
    t = float(tau) / c
    keep = s > t
    U = U[:, keep]
    factor = c * (1.0 - t / s[keep])
    if wide:
        return (U * factor) @ (U.T @ Xs)
    return ((Xs @ U) * factor) @ U.T


def group_shrink(X: np.ndarray, tau: float) -> np.ndarray:
    """Shrink each column toward zero by tau in l2 norm (prox of tau * sum
    of column norms).  Columns with norm at most tau map to exactly zero."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    norms = np.linalg.norm(X, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(norms > 0, np.maximum(1.0 - tau / norms, 0.0), 0.0)
    return X * factor


#: Each path point stops once its relative objective change is below this.
TOL_OBJECTIVE = 1e-8


def lasso_path_solve(
    design: np.ndarray,
    observation: np.ndarray,
    regs,
    max_iters: int = 2000,
) -> tuple[np.ndarray, int]:
    """Solve the LASSO min_c 1/2 ||y - D c||^2 + mu ||c||_1 for every weight
    mu in ``regs`` over a shared design D (p x n).

    Returns the (n x len(regs)) coefficient matrix, column j for regs[j],
    and the largest per-point iteration count.  The points are solved in
    decreasing order of weight, whatever the order of ``regs``.  Each starts
    from the previous point's coefficients (the first from zero) with the
    momentum reset, and stops once its relative objective change is below
    TOL_OBJECTIVE, or after ``max_iters`` iterations of its own; a returned
    count equal to ``max_iters`` means some point hit that cap.  The step
    is 1/L with L = sigma_max(D)^2 exact, the largest step for which FISTA
    is guaranteed to converge.
    """
    regs = np.asarray(regs, dtype=float)
    if np.any(regs <= 0):
        raise ValueError("regularization weights must be positive")
    D = np.asarray(design, dtype=float)
    y = np.asarray(observation, dtype=float).ravel()
    gram = D @ D.T if D.shape[0] <= D.shape[1] else D.T @ D
    L = float(np.max(np.linalg.eigvalsh(gram), initial=0.0))
    if not (np.isfinite(L) and L > 0):
        raise ValueError("step-size estimation failed: zero design")
    step = 1.0 / L
    Dty = D.T @ y
    coeffs = np.zeros((D.shape[1], regs.size))
    c = np.zeros(D.shape[1])
    worst = 0
    for j in np.argsort(regs)[::-1]:
        mu = regs[j]
        r = D @ c - y
        obj_prev = 0.5 * float(r @ r) + mu * float(np.sum(np.abs(c)))
        z, t, it = c, 1.0, 0
        for it in range(1, max_iters + 1):
            c_new = soft_threshold(z - step * (D.T @ (D @ z) - Dty), mu * step)
            r = D @ c_new - y
            obj = 0.5 * float(r @ r) + mu * float(np.sum(np.abs(c_new)))
            if not np.isfinite(obj):
                raise FloatingPointError("non-finite objective in LASSO iteration")
            if obj > obj_prev:  # function-value restart
                t_new, mom = 1.0, 0.0
            else:
                t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
                mom = (t - 1.0) / t_new
            z = c_new + mom * (c_new - c)
            done = abs(obj - obj_prev) <= TOL_OBJECTIVE * max(1.0, abs(obj_prev))
            c, t, obj_prev = c_new, t_new, obj
            if it > 1 and done:
                break
        coeffs[:, j] = c
        worst = max(worst, it)
    return coeffs, worst
