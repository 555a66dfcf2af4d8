import numpy as np
import pytest


def orth_basis(A, rtol=None):
    """Orthonormal basis of the column space, truncated at numerical rank."""
    U, s, _ = np.linalg.svd(np.asarray(A, float), full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return U[:, :0]
    tol = (rtol if rtol is not None else max(A.shape) * np.finfo(float).eps) * s[0]
    return U[:, s > tol]


def principal_angle(A, B):
    """Largest principal angle between the column spaces of A and B."""
    Qa, Qb = orth_basis(A), orth_basis(B)
    if Qa.shape[1] != Qb.shape[1]:
        return np.pi / 2
    sv = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


def nonzero_columns(X, tol=1e-6):
    return set(np.nonzero(np.linalg.norm(X, axis=0) > tol)[0])


def separation_objective(L, C, lam):
    """Objective of the separation program: ||L||_* + lam ||C||_{1,2}."""
    return np.linalg.svd(L, compute_uv=False).sum() + lam * np.linalg.norm(C, axis=0).sum()


def fixed_rho_reference(Y, mask, lam, tol=1e-10, max_iters=20000):
    """Reference solution of the separation program

        min ||L||_* + lam ||C||_{1,2}   s.t.  Y = L + C on the mask,

    independent of sketchout.solver: plain ADMM at the fixed penalty
    20 / ||Y||_2 with an SVD-based threshold, on Y divided by its largest
    observed magnitude, run until the relative duality gap of the feasible
    pair (L, C + residual) and the multiplier scaled into the dual feasible
    set is at most tol; raises AssertionError otherwise.  Returns L in Y's
    units, so with a full mask (L, Y - L) is a feasible pair whose objective
    is within tol, relative, of the optimum."""
    top = np.max(np.abs(Y[mask]))
    Y = np.where(mask, Y, 0.0) / top
    rho = 20.0 / np.linalg.norm(Y, 2)
    L, C, Lam = np.zeros_like(Y), np.zeros_like(Y), np.zeros_like(Y)
    for it in range(1, max_iters + 1):
        Z = np.where(mask, Y + Lam / rho, L + C)
        U, s, Vt = np.linalg.svd(Z - C, full_matrices=False)
        L = (U * np.maximum(s - 1.0 / rho, 0.0)) @ Vt
        G = Z - L
        norms = np.linalg.norm(G, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            C = G * np.where(norms > 0, np.maximum(1.0 - lam / (rho * norms), 0.0), 0.0)
        R = np.where(mask, Y - L - C, 0.0)
        Lam += rho * R
        if it % 10 == 0:
            primal = separation_objective(L, C + R, lam)
            scale = max(1.0, np.linalg.norm(Lam, 2), np.linalg.norm(Lam, axis=0).max() / lam)
            if primal - np.vdot(Lam, Y) / scale <= tol * primal:
                return top * L
    raise AssertionError("reference did not reach a gap of %g" % tol)


@pytest.fixture
def helpers():
    class H:
        pass

    H.orth_basis = staticmethod(orth_basis)
    H.principal_angle = staticmethod(principal_angle)
    H.nonzero_columns = staticmethod(nonzero_columns)
    return H
