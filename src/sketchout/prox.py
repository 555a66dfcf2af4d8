"""Proximal operators and the accelerated LASSO solver.

The three proximal maps (elementwise soft threshold for the l1 norm,
singular value thresholding for the nuclear norm, columnwise group
shrinkage for the sum of column l2 norms) are the building blocks of the
splitting solvers.  ``lasso_path_solve`` is the one LASSO entry point: a
FISTA iteration with function-value restart and step size 1/L, L estimated
by power iteration, run simultaneously for a whole path of regularization
weights sharing one design matrix (a single weight is a path of length 1).
"""

from __future__ import annotations

import numpy as np


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """sign(v) * max(|v| - tau, 0), elementwise."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def svt(X: np.ndarray, tau: float) -> np.ndarray:
    """Shrink the singular values of X by tau (prox of tau * nuclear norm)."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    return (U[:, keep] * s[keep]) @ Vt[keep]


def group_shrink(X: np.ndarray, tau: float) -> np.ndarray:
    """Shrink each column toward zero by tau in l2 norm (prox of tau * sum
    of column norms).  Columns with norm at most tau map to exactly zero."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    norms = np.linalg.norm(X, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(norms > 0, np.maximum(1.0 - tau / norms, 0.0), 0.0)
    return X * factor


def _largest_sq_singular_value(D: np.ndarray, iters: int = 50, tol: float = 1e-8) -> float:
    """Largest squared singular value of D by power iteration on D^T D."""
    n = D.shape[1]
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(iters):
        w = D.T @ (D @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise ValueError("step-size estimation failed: zero design")
        v_new = w / nw
        lam_new = float(v_new @ (D.T @ (D @ v_new)))
        if abs(lam_new - lam) <= tol * max(1.0, lam_new):
            return lam_new
        v, lam = v_new, lam_new
    return lam


def lasso_path_solve(
    design: np.ndarray,
    observation: np.ndarray,
    regs,
    max_iters: int = 2000,
    tol: float = 1e-8,
) -> tuple[np.ndarray, int]:
    """Solve the LASSO min_c 1/2 ||y - D c||^2 + mu ||c||_1 for every weight
    mu in ``regs`` over a shared design D (p x n).

    Returns the (n x len(regs)) coefficient matrix and the iteration count.
    The weights are batched into matrix products, one coefficient column
    each; the iteration stops once every column's relative objective change
    is below ``tol``, or after ``max_iters`` iterations.
    """
    regs = np.asarray(regs, dtype=float)
    if np.any(regs <= 0):
        raise ValueError("regularization weights must be positive")
    D = np.asarray(design, dtype=float)
    y = np.asarray(observation, dtype=float).ravel()
    L = _largest_sq_singular_value(D) * (1.0 + 1e-6)  # power iteration converges from below
    step = 1.0 / L
    tau = regs * step
    C = np.zeros((D.shape[1], regs.size))
    Z = C.copy()
    t = np.ones(regs.size)
    Dty = D.T @ y
    obj_prev = np.full(regs.size, 0.5 * float(y @ y))
    for it in range(1, max_iters + 1):
        G = D.T @ (D @ Z) - Dty[:, None]
        C_new = Z - step * G
        C_new = np.sign(C_new) * np.maximum(np.abs(C_new) - tau, 0.0)
        R = D @ C_new - y[:, None]
        obj = 0.5 * np.sum(R * R, axis=0) + regs * np.sum(np.abs(C_new), axis=0)
        if not np.all(np.isfinite(obj)):
            raise FloatingPointError("non-finite objective in LASSO iteration")
        restart = obj > obj_prev
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_new
        mom[restart] = 0.0
        t_new[restart] = 1.0
        Z = C_new + mom * (C_new - C)
        done = np.abs(obj - obj_prev) <= tol * np.maximum(1.0, np.abs(obj_prev))
        C, t, obj_prev = C_new, t_new, obj
        if it > 1 and np.all(done):
            return C, it
    return C, max_iters
