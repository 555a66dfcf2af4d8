"""Proximal operators and the accelerated LASSO solver.

The three proximal maps (``_shrink``, the elementwise soft threshold for
the l1 norm; ``_svt``, singular value thresholding for the nuclear norm;
``_group_shrink``, columnwise shrinkage for the sum of column l2 norms)
are the building blocks of the solver loops, which make their thresholds
nonnegative and so call them unchecked.  ``_svt`` thresholds a wide X (a
tall one through its transpose) by the eigendecomposition of X X^T, not a
full SVD, and leaves X's scale to its one caller, ``solver.rmc_solve``,
which solves at unit scale; its docstring gives the accuracy.
``lasso_path_solve`` is the one LASSO entry point, run along a path of
regularization weights sharing one design, a ``sketching.SparseColumns``
(a single weight is a path of length 1), by continuation, each point solved
by FISTA on a working set of columns; its docstring gives the algorithm.
``as_real`` is the package's rule for an input array: it refuses complex
input instead of dropping its imaginary part, a wrong dimension count, and
NaN or infinite entries where the caller does not check those itself as it
reads them.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .sketching import SparseColumns

__all__ = ["MAX_ITERS", "TOL_OBJECTIVE", "as_real", "lasso_path_solve"]


def as_real(x: np.ndarray, name: str, ndim: int | None = None, finite: bool = True) -> np.ndarray:
    """``x`` as a float array; ValueError naming ``name`` if x is complex
    (rather than drop its imaginary part), has not ``ndim`` dimensions when
    that is given, or holds a NaN or an infinity when ``finite`` is set."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError("%s must be real" % name)
    x = np.asarray(x, dtype=float)
    if ndim is not None and x.ndim != ndim:
        raise ValueError("%s must be %d-D, got shape %s" % (name, ndim, x.shape))
    if finite and not np.isfinite(x).all():
        raise ValueError("%s must be finite" % name)
    return x


def _shrink(v: np.ndarray, tau) -> tuple[np.ndarray, np.ndarray]:
    """The soft threshold sign(v) * max(|v| - tau, 0), elementwise, for a
    nonnegative ``tau`` (a scalar or an array of v's shape), unchecked,
    with its magnitudes max(|v| - tau, 0), which are exactly its absolute
    values.  The threshold is written over the float array ``v``, which
    callers pass fresh."""
    mag = np.abs(v)
    mag -= tau
    np.maximum(mag, 0.0, out=mag)
    np.sign(v, out=v)
    v *= mag
    return v, mag


def _svt(X: np.ndarray, tau: float) -> np.ndarray:
    """Shrink the singular values of the float array X by a nonnegative tau
    (prox of tau * nuclear norm), unchecked.  X must be finite and of order
    one, as ``solver.rmc_solve``, the one caller, guarantees: it solves its
    data divided by the power of two above its largest absolute entry, with
    observed entries checked finite and unobserved ones zeroed, so forming
    G neither overflows nor underflows at the scale of the singular values.

    A tall X returns ``_svt(X.T, tau).T``.  A wide X has G = X X^T = U
    diag(w) U^T; with s = sqrt(max(w, 0)) the result is U_k diag(1 - tau /
    s_k) U_k^T X over the s_k > tau, zero when no s_k exceeds tau.  This is
    a spectral function of G, so repeated singular values need no right
    singular vectors.  The eigenvalues of G carry an absolute error of order
    eps * sigma_1^2, so a singular value s is resolved to about eps *
    sigma_1^2 / s: the result agrees with an SVD-based threshold to rounding
    when the singular values near tau lie well above sqrt(eps) * sigma_1,
    and is exactly zero when tau is at least the largest computed one.
    """
    if X.shape[0] > X.shape[1]:
        return _svt(X.T, tau).T
    w, U = np.linalg.eigh(X @ X.T)
    s = np.sqrt(np.maximum(w, 0.0))
    keep = s > tau
    U = U[:, keep]
    factor = 1.0 - tau / s[keep]
    return (U * factor) @ (U.T @ X)


def _group_shrink(X: np.ndarray, tau: float) -> np.ndarray:
    """Shrink each column of the float array X toward zero by a nonnegative
    tau in l2 norm (prox of tau * sum of column norms), unchecked.  Columns
    with norm at most tau map to exactly zero."""
    norms = np.sqrt((X * X).sum(axis=0))
    # a zero column divides to inf and so takes the factor 0
    factor = np.divide(tau, norms, out=np.full_like(norms, np.inf), where=norms > 0)
    np.subtract(1.0, factor, out=factor)
    return X * np.maximum(factor, 0.0, out=factor)


#: Each FISTA solve stops once its relative objective change is below this,
#: and a path point is done once no single-coordinate step could lower the
#: objective by more than this, relative to the objective.
TOL_OBJECTIVE = 1e-8

#: Default cap on each path point's iteration count; acos reads it at call time.
MAX_ITERS = 2000


def _step(D: np.ndarray) -> float:
    """1 / sigma_max(D)^2, the largest step for which FISTA on D is
    guaranteed to converge, from the smaller Gram matrix of D."""
    gram = D @ D.T if D.shape[0] <= D.shape[1] else D.T @ D
    return 1.0 / float(np.max(np.linalg.eigvalsh(gram)))


def _fista(D: np.ndarray, Dty: np.ndarray, y: np.ndarray, c: np.ndarray, mu: float,
           step: float, max_iters: int) -> tuple[np.ndarray, np.ndarray, int]:
    """FISTA from c, momentum reset, on min 1/2 ||y - D c||^2 + mu ||c||_1,
    with step ``_step(D)`` and the restart and stop described in
    ``lasso_path_solve``.  Returns the coefficients, their residual
    D c - y and the iteration count."""
    tau = mu * step
    r = D @ c - y
    obj_prev = 0.5 * float(r @ r) + mu * float(np.abs(c).sum())
    z, t, it = c, 1.0, 0
    for it in range(1, max_iters + 1):
        v = D.T @ (D @ z)
        v -= Dty
        v *= step
        c_new, mag = _shrink(np.subtract(z, v, out=v), tau)
        r = D @ c_new - y
        obj = 0.5 * float(r @ r) + mu * float(mag.sum())
        if not math.isfinite(obj):
            raise FloatingPointError("non-finite objective in LASSO iteration")
        if obj > obj_prev:  # function-value restart
            t_new, mom = 1.0, 0.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            mom = (t - 1.0) / t_new
        z = np.subtract(c_new, c)
        z *= mom
        z += c_new
        done = abs(obj - obj_prev) <= TOL_OBJECTIVE * max(1.0, abs(obj_prev))
        c, t, obj_prev = c_new, t_new, obj
        if it > 1 and done:
            break
    return c, r, it


def lasso_path_solve(
    design: SparseColumns,
    observation: np.ndarray,
    regs: np.ndarray,
    max_iters: int = MAX_ITERS,
) -> tuple[np.ndarray, int]:
    """Solve the LASSO min_c 1/2 ||y - D c||^2 + mu ||c||_1 for every weight
    mu in ``regs`` over a shared design D (p x n), held by its nonzeros.

    Returns the (n x len(regs)) coefficient matrix, column j for regs[j],
    and the largest per-point iteration count.  The points are solved in
    decreasing order of weight, whatever the order of ``regs``.

    Each point is solved on a working set W of columns, the rest of its
    coefficients held at zero.  W starts as the support of the previous
    point's coefficients (empty for the first point).  Each round first
    runs FISTA on D_W from the current coefficients (skipped while W is
    empty): function-value restart, step 1 / sigma_max(D_W)^2 exact and
    computed only when W differs from the last W solved on, stop once the
    relative objective change is below TOL_OBJECTIVE.  It then computes
    the full gradient g = D^T (y - D_W c_W), one pass over the slots of D,
    and rates every column j by the objective decrease of its best
    single-coordinate step from the current coefficients; for j outside W
    that is (|g_j| - mu)_+^2 / (2 ||D_j||^2), and a zero column rates 0.
    The point is done once no rating exceeds TOL_OBJECTIVE * max(1, |obj|),
    which certifies every coordinate against the whole design.  Otherwise
    the outside columns with the largest ratings above that bound join W,
    at most max(1, |W|) of them, so W at most doubles per round; when only
    columns of W fail the check, the next round re-solves on the same W.
    When the solution is dense W reaches every column.

    A point's count is its FISTA iterations summed over its rounds, capped
    at ``max_iters``; a returned count equal to ``max_iters`` means some
    point hit that cap, and that point's coefficients are uncertified.
    ``regs`` is 1-D and ``observation`` holds one entry per design row.  A
    design that is not a ``SparseColumns``, a zero design, one whose sum of
    squares is not finite, a non-finite observation, a weight that is not
    positive and finite and a ``max_iters`` that is not a positive integer
    (a bool is not) raise ValueError.
    """
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral) or max_iters < 1:
        raise ValueError("max_iters must be a positive integer, got %r" % (max_iters,))
    regs = as_real(regs, "regularization weights", ndim=1, finite=False)
    if not np.all((regs > 0) & (regs < np.inf)):
        raise ValueError("regularization weights must be positive and finite")
    if not isinstance(design, SparseColumns):
        raise ValueError("design must be a sketching.SparseColumns, got %s" % type(design).__name__)
    D = design
    y = as_real(observation, "observation").ravel()
    if y.size != D.shape[0]:
        raise ValueError("observation must hold one entry per design row")
    Dty = y @ D
    col_sq = D.col_sq()
    total = float(np.sum(col_sq))
    if not np.isfinite(total):
        raise ValueError("design must be finite, with a finite sum of squares")
    if total == 0:
        raise ValueError("step-size estimation failed: zero design")
    # a zero column has g = 0, so its rating below is exactly 0: dividing
    # by 1 there keeps it finite
    sq = np.where(col_sq > 0, col_sq, 1.0)
    half_sq = 0.5 * sq
    coeffs = np.zeros((D.shape[1], regs.size))
    c = np.zeros(D.shape[1])
    worst = 0
    # the working set whose block D[:, W] and step are held
    held = np.empty(0, dtype=np.intp)
    for j in np.argsort(regs)[::-1]:
        mu = regs[j]
        tau = mu / sq
        W = np.flatnonzero(c)
        used = 0
        while True:
            if W.size:
                if not np.array_equal(W, held):
                    held, DW = W, D.columns(W)
                    step = _step(DW)
                c[W], r, it = _fista(DW, Dty[W], y, c[W], mu, step, max_iters - used)
                used += it
                if used >= max_iters:
                    break
                # FISTA's residual is D_W c_W - y, so the gradient changes sign
                g = r @ D
                np.negative(g, out=g)
            else:  # c = 0: the residual -y has y's square, and g = D^T y
                r, g = y, Dty
            abs_c = np.abs(c)
            obj = 0.5 * float(r @ r) + mu * float(abs_c.sum())
            if not math.isfinite(obj):
                raise FloatingPointError("non-finite objective in LASSO iteration")
            # objective decrease of each column's best single-coordinate step
            t = g / sq
            t += c
            d, mag = _shrink(t, tau)
            d -= c
            gain = g * d
            quad = half_sq * d
            quad *= d
            gain -= quad
            gain -= np.multiply(mu, np.subtract(mag, abs_c, out=mag), out=mag)
            over = gain > TOL_OBJECTIVE * max(1.0, abs(obj))
            if not over.any():
                break
            over[W] = False
            grow = np.flatnonzero(over)
            grow = grow[np.argsort(-gain[grow], kind="stable")[: max(1, W.size)]]
            W = np.union1d(W, grow)
        coeffs[:, j] = c
        worst = max(worst, used)
    return coeffs, worst
