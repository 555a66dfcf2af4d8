import math
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest

from sketchout import AcosConfig, bernoulli_mask, detect, generate_instance, pipeline
from sketchout.rng import derive_seed
from sketchout.sketching import SparseColumns

# the scripts' fixed inputs are the tests' inputs too
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
from check_corpus import entry  # noqa: E402


def held(D):
    """The dense matrix D as a ``SparseColumns`` with a slot in every row,
    the form a step-2 operand takes; ``np.asarray`` of it is D."""
    D = np.asarray(D)
    return SparseColumns(np.broadcast_to(np.arange(D.shape[0])[:, None], D.shape), D, D.shape)


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


def gaussian_product(shape, rank, seed):
    """A Gaussian product of the given rank, so its singular values are distinct."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))


def with_spectrum(shape, sigma, seed):
    """A matrix of the given shape whose nonzero singular values are ``sigma``,
    with random singular vectors."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    Q, _ = np.linalg.qr(rng.standard_normal((shape[0], len(sigma))))
    P, _ = np.linalg.qr(rng.standard_normal((shape[1], len(sigma))))
    return (Q * sigma) @ P.T


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


def separation_input(mode, inst, mask, cfg):
    """The subproblem (Y, mask, lam) that ``detect(mode, ...)`` hands to
    ``rmc_solve`` (acos and sacos through ``outlier_pursuit``, with a full
    mask), taken without solving it."""

    class Taken(Exception):
        pass

    def take(Y, mask, lam):
        raise Taken(Y, mask, lam)

    def take_full(Y, lam):
        take(Y, np.ones(Y.shape, bool), lam)

    with mock.patch.object(pipeline, "rmc_solve", take), \
            mock.patch.object(pipeline, "outlier_pursuit", take_full), pytest.raises(Taken) as exc:
        detect(mode, inst.M, cfg, mask)
    return exc.value.args


def corpus_c06_input(i):
    """Separation subproblem of c06 input i of scripts/check_corpus.py."""
    return separation_input("sacos_missing", *entry("sacos_missing", 5, 50, i))


def half_observed_input(trial):
    """Separation subproblem of trial ``trial`` of ``phase_grid(mode=
    "sacos_missing", n1=100, n2=1000, m=30, gamma=0.2, r_values=[5],
    k_values=[50], lambda_set=[0.4], seed=11, p_omega=0.5)``."""
    cell_seed = derive_seed(11, 5, 50, 0, trial)
    inst = generate_instance(100, 1000, 5, 50, derive_seed(cell_seed, 0))
    mask = bernoulli_mask(100, 1000, 0.5, derive_seed(cell_seed, 2))
    cfg = AcosConfig(gamma=0.2, m=30, lam=0.4, seed=derive_seed(cell_seed, 3))
    return separation_input("sacos_missing", inst, mask, cfg)


def leading_sin_theta(A, B, d):
    """sin of the largest principal angle between the leading d left
    singular subspaces of A and B."""
    U = np.linalg.svd(A, full_matrices=False)[0][:, :d]
    V = np.linalg.svd(B, full_matrices=False)[0][:, :d]
    return float(np.linalg.norm(U - V @ (V.T @ U), 2))


def f_jl(eps):
    """JL tail exponent f(eps) = eps^2/4 - eps^3/6 for Gaussian sketches:
    Pr(| ||S v||^2 - 1 | >= eps) <= 2 exp(-m f(eps)) for a unit v and an
    m-row sketch S."""
    return eps * eps / 4.0 - eps ** 3 / 6.0


def column_incoherence(L):
    """Measured column incoherence of a nonzero low-rank matrix.

    max_i ||V^T e_i||^2 * n_L / r for the right singular vectors V of L,
    where n_L counts the nonzero columns.  Lies in [1, n_L / r]; small
    values mean the row space is spread across many columns.
    """
    _, s, Vt = np.linalg.svd(L, full_matrices=False)
    r = int(np.sum(s > max(L.shape) * np.finfo(float).eps * s[0]))
    n_low = int(np.sum(np.linalg.norm(L, axis=0) > 0))
    leverage = np.sum(Vt[:r] ** 2, axis=0)
    return float(np.max(leverage) * n_low / r)


def hypergeometric_tail_bound(N, M, n, eps):
    """Upper-tail bound for draws without replacement, for 0 <= M, n <= N
    and eps >= 0.

    For H ~ hyp(N, M, n) and p = M/N:
    Pr(H >= (1 + eps) n p) <= exp(-eps^2 n p / (2 (1 + eps/3))).
    """
    np_mean = n * (M / N)
    return math.exp(-eps * eps * np_mean / (2.0 * (1.0 + eps / 3.0)))


def write_csv(path, X):
    """A matrix file in the format ``io.read_matrix_csv`` reads (header
    ``rows,cols``, values at fixed precision 6), also for entries the
    library refuses: NaN, infinite or complex (written as Python writes a
    complex number)."""
    rows = [",".join("%.6f" % v.real if np.isreal(v) else str(v) for v in row) for row in X]
    pathlib.Path(path).write_text("%d,%d\n" % np.shape(X) + "".join(r + "\n" for r in rows))
