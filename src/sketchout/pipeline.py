"""End-to-end outlier-column identification pipelines.

``acos`` is the two-step adaptive procedure: learn the sketched low-rank
column space from a random column subsample, then recover outlier
locations by l1 decoding of a doubly compressed residual (one probe row
against the subspace complement, one sparse sign compression across
columns, where the paper draws a dense Gaussian one).
``sacos`` skips the second compression and scores every sketched column by
its residual norm orthogonal to the learned subspace.  ``sacos_missing``
is the missing-data variant: the sketch becomes a row subsample, the
separation step a masked solve, and each column is scored on its observed
entries only.  ``detect`` runs any of the three by name (``MODES``),
accepts an observation mask for sacos_missing only, and reports the
sampling rate as a fraction of the matrix entries.

Each pipeline takes the data matrix as an array and wraps it in its own
:class:`MatrixSource`, which exposes only operator applications and
masked row reads, counts every scalar measurement taken, and rejects
non-finite measurements, so the adaptivity boundary is auditable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import prox
from .rng import derive_seed
# bench/tracing.py rebinds these layer names in this module to time them;
# acos's sparse compression is not one, so its draw counts as pipeline time
from .sketching import (
    SparseColumns,
    _indices,
    make_column_sampler,
    make_gaussian_sketch,
    make_probe_vector,
    make_row_subsampler,
    make_sparse_sign_sketch,
)
from .prox import lasso_path_solve
from .solver import GAP_RATIO, _gap_cut, as_mask, outlier_pursuit, rmc_solve, subspace_basis

__all__ = ["MODES", "MU_PATH_LO", "PATH_POINTS", "AcosConfig", "MatrixSource", "PipelineError",
           "SupportEstimate", "acos", "check_mode", "detect", "extract_support",
           "measurement_count", "sacos", "sacos_missing"]

MODES = ("acos", "sacos", "sacos_missing")

#: Lower end of the regularization path, as a fraction of the null
#: threshold ||D^T y||_inf.  Wide enough to cover the dynamic range the
#: random probe induces on the outlier coefficients.
MU_PATH_LO = 1e-5

#: Number of geometrically spaced weights on the regularization path.
PATH_POINTS = 10

#: Relative residual and coefficient floor of ``_refit``.
REFIT_TOL = 1e-6


class PipelineError(RuntimeError):
    """Degenerate sampling or other unrecoverable pipeline failure."""


def _check_kind(kind, what, **values) -> None:
    """Raise ValueError naming the first value that is not a ``kind``; a
    bool passes only where ``kind`` is bool."""
    for key, value in values.items():
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError("%s must be %s, got %r" % (key, what, value))


@dataclass(frozen=True)
class AcosConfig:
    """Sampling and decoding parameters for one pipeline run.

    ``gamma`` is the column-sampling rate and ``m`` the number of sketch
    rows (sampled rows for sacos_missing).  ``p`` is the compression
    size of the acos decoding step, which needs p >= 1 (``check_mode``);
    the sacos variants do not read it.  ``lam`` is the separation weight,
    positive and finite; None leaves it to the pipeline, which sizes it
    from the column count (``_resolve_lambda``).  ``seed`` derives the
    seed of every operator the run draws; ``m``, ``p`` and ``seed`` are
    integers, ``gamma`` and ``lam`` real numbers (a bool is neither).
    """

    gamma: float
    m: int
    p: int = 0
    lam: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_kind(numbers.Integral, "an integer", m=self.m, p=self.p, seed=self.seed)
        _check_kind(numbers.Real, "a number", gamma=self.gamma)
        if self.lam is not None:
            _check_kind(numbers.Real, "a number", lam=self.lam)
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError("separation weights must be positive and finite, got %r" % (self.lam,))


@dataclass(frozen=True)
class SupportEstimate:
    """Per-column outlier scores, the declared index set, and how they arose.

    ``score_path`` (n_points x n2) holds every score vector computed: one
    row per LASSO weight for acos (``mu_used`` is the weight of ``scores``),
    the single row ``scores`` otherwise.  ``column_flags`` marks columns
    whose score is a placeholder (missing-data variant).  ``converged`` is
    false when the separation solve stopped at its iteration cap or was
    degenerate, so the learned subspace carries no certificate, or when
    the acos decoder's count reached ``prox.MAX_ITERS``, so some path
    point carries none.
    """

    scores: np.ndarray = field(repr=False)
    declared: np.ndarray
    score_path: np.ndarray = field(repr=False)
    converged: bool
    mu_used: float | None = None
    column_flags: dict[str, np.ndarray] | None = None


def _operand(x, name: str, axis: int, size: int):
    """``x``, an array read by ``prox.as_real`` with finite=False or a
    ``SparseColumns``, checked to have ``size`` entries along ``axis``; its
    finiteness is left to ``MatrixSource._collect``, which checks every
    block formed from it."""
    if x.shape[axis] != size:
        raise ValueError("%s must have %d entries along axis %d, got shape %s"
                         % (name, size, axis, x.shape))
    return x


class MatrixSource:
    """Column-access provider around the data matrix.

    The pipelines read the data only through these methods; ``measurements``
    counts every scalar collected.  The data, and every array a method is
    given, must be real (``prox.as_real``) and match the data's shape, or
    ValueError names the array.  Each returned block must be finite, with a
    finite sum of squares, or the read raises ValueError: downstream
    least-squares steps cannot use it.
    """

    def __init__(self, M: np.ndarray):
        self._M = prox.as_real(M, "data", finite=False)
        if self._M.ndim != 2 or self._M.shape[1] < 1:
            raise ValueError("data must be a matrix with at least one column")
        self.measurements = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._M.shape

    def _collect(self, measure, count=None) -> np.ndarray:
        """Take one block (``count`` scalars, default all) and check it."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = measure()
            finite = np.isfinite(np.vdot(out, out))
        if not finite:
            raise ValueError("data measurements must be finite")
        self.measurements += out.size if count is None else count
        return out

    def sketch(self, op: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        """Phi M[:, idx] for integer column indices ``idx``, every column
        when it is None; counts rows(Phi) * |idx| scalars."""
        op = _operand(prox.as_real(op, "op", ndim=2, finite=False), "op", 1, self._M.shape[0])
        block = self._M if idx is None else self._M[:, _indices(idx, self._M.shape[1], "idx")]
        return self._collect(lambda: op @ block)

    def row_sketch(self, w: np.ndarray, right: SparseColumns) -> np.ndarray:
        """(w M) right^T for a single row vector w and a matrix ``right``
        held by its nonzeros, one scatter-add over its slots; counts
        rows(right)."""
        n1, n2 = self._M.shape
        w = _operand(prox.as_real(w, "w", ndim=1, finite=False), "w", 0, n1)
        if not isinstance(right, SparseColumns):
            raise ValueError("right must be a sketching.SparseColumns, got %s" % type(right).__name__)
        right = _operand(right, "right", 1, n2)
        return self._collect(lambda: right @ (w @ self._M))

    def masked_rows(self, rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """M[rows] where ``mask`` (|rows| x n2, ``solver.as_mask``) is true,
        zero elsewhere; counts the observed entries only.  ``rows`` holds
        integer row indices."""
        rows = _indices(rows, self._M.shape[0], "rows")
        mask = as_mask(mask, (rows.size, self._M.shape[1]))
        return self._collect(lambda: np.where(mask, self._M[rows], 0.0), int(mask.sum()))


def check_mode(mode: str, cfg: AcosConfig, masked: bool) -> None:
    """The entry rules of a pipeline run: ``mode`` is one of MODES, an
    observation mask comes with sacos_missing and with no other mode
    (``masked`` says whether one does), and acos has a decoding step,
    p >= 1.  Raises ValueError naming the broken rule."""
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % (MODES,))
    if masked != (mode == "sacos_missing"):
        raise ValueError("mode sacos_missing needs an observation mask, and no other mode reads one")
    if mode == "acos" and cfg.p < 1:
        raise ValueError("mode acos needs p >= 1 for its decoding step, got p=%r" % (cfg.p,))


def _resolve_lambda(cfg: AcosConfig, n2: int) -> float:
    """``cfg.lam``, or the Outlier Pursuit weight 3 / (7 sqrt(k)) for the
    outlier bound k = ceil(n2 / 10); n2 >= 1 makes k >= 1."""
    return cfg.lam if cfg.lam is not None else 3.0 / (7.0 * math.sqrt(math.ceil(0.1 * n2)))


def _sample_columns(n2: int, cfg: AcosConfig) -> np.ndarray:
    """Bernoulli column sample indices; one retry with a fresh seed before
    failing."""
    idx = make_column_sampler(n2, cfg.gamma, derive_seed(cfg.seed, 1)).indices
    if idx.size == 0:
        idx = make_column_sampler(n2, cfg.gamma, derive_seed(cfg.seed, 1, 1)).indices
    if idx.size == 0:
        raise PipelineError("column sample empty after retry")
    return idx


def _declare(scores: np.ndarray, ratio: float, count: int) -> np.ndarray:
    """Sorted indices of the ``count`` largest scores if ratio > GAP_RATIO, else none."""
    return np.sort(np.argsort(scores)[::-1][:count if ratio > GAP_RATIO else 0])


def extract_support(scores: np.ndarray) -> np.ndarray:
    """The declared outlier set of a score vector, as sorted indices.

    Declares the scores above the largest multiplicative gap between
    consecutive positive scores, provided it exceeds GAP_RATIO; otherwise
    nothing.  Scores at or below zero take no part (``solver._gap_cut``).
    """
    scores = prox.as_real(scores, "scores", ndim=1)
    return _declare(scores, *_gap_cut(scores))


def _path_cut(point: np.ndarray) -> tuple[float, int]:
    """acos's path-point rating: ``_gap_cut``'s, or a clean cut at zero where no gap clears."""
    cut, nonzeros = _gap_cut(point), np.count_nonzero(point)
    return (np.inf, nonzeros) if 0 < nonzeros < point.size and cut[0] <= GAP_RATIO else cut


def _refit(design: SparseColumns, y: np.ndarray, path: np.ndarray):
    """OLS post-Lasso: from the largest weight down (the last row of
    ``path``), fit y by least squares on the columns of each distinct
    support S with 0 < |S| < rows(design).  The first fit b whose residual
    is at most REFIT_TOL ||y|| wins: returns its point's row index and the
    columns of S with |b_j| above REFIT_TOL max |b|.  None if no fit does.

    b solves the normal equations, several times faster than an SVD on
    the large supports of noisy inputs, none of which fits.  No b leaves a
    smaller residual than the exact fit, so an inaccurate solve can reject
    a support but never accept one."""
    tol = REFIT_TOL * np.linalg.norm(y)
    seen = set()
    for i in range(len(path) - 1, -1, -1):
        S = np.flatnonzero(path[i])
        if not 0 < S.size < design.shape[0] or S.tobytes() in seen:
            continue
        seen.add(S.tobytes())
        DS = design.columns(S)
        try:
            b = np.linalg.solve(DS.T @ DS, DS.T @ y)
        except np.linalg.LinAlgError:  # equal columns in S, as at small p
            continue
        if np.linalg.norm(DS @ b - y) <= tol:
            b = np.abs(b)
            return i, S[b > REFIT_TOL * b.max()]
    return None


def acos(M: np.ndarray, cfg: AcosConfig) -> tuple[SupportEstimate, int]:
    """Two-step adaptive identification of outlier columns.

    Step 1 sketches a Bernoulli column subsample, separates it into
    low-rank plus column-sparse parts, and learns the sketched subspace.
    Step 2 collects one probe row of the residual, compresses it across
    columns, and decodes the outlier locations along a geometric path of
    LASSO weights.  The declaration and the returned scores come from the
    sparsest point whose support refits the compressed row exactly
    (``_refit``), or, where none does, from the point with the best
    multiplicative separation (``_path_cut``); either way the leakage
    guard may override the declaration.  Also returns the exact number of
    scalar measurements collected (|S| m + p).

    The p x n2 compression of step 2 is a sparse sign sketch
    (``sketching.make_sparse_sign_sketch``), not the paper's Gaussian one:
    sparse +-1 designs support the same l1 decoding (RIP-1, Berinde et al.
    2008), and they make encoding and decoding cheap.  Step 2 never forms
    the dense p x n2 matrix: the measured row, the null threshold and the
    decoder's products and column norms each take one pass over its 8
    slots per column, and FISTA and the refit solve on dense blocks of
    the few columns in play, built from those slots.
    """
    check_mode("acos", cfg, False)
    src = MatrixSource(M)
    n1, n2 = src.shape
    cols = _sample_columns(n2, cfg)
    sketch = make_gaussian_sketch(cfg.m, n1, derive_seed(cfg.seed, 2))
    Y1 = src.sketch(sketch.matrix, cols)

    lam = _resolve_lambda(cfg, n2)
    sol = outlier_pursuit(Y1, lam)
    basis = subspace_basis(sol.low_rank)

    phi = make_probe_vector(cfg.m, derive_seed(cfg.seed, 4)).matrix.ravel()
    w = basis.project_out(phi) @ sketch.matrix  # phi P Phi, 1 x n1
    # declaration guard: with no outliers the decoded coefficients are
    # pure solver leakage, whose scale is measurable from the
    # already-collected sketch; genuine outlier responses sit orders of
    # magnitude above.
    leak = np.median(np.linalg.norm(basis.project_out(Y1), axis=0))
    right = make_sparse_sign_sketch(cfg.p, n2, derive_seed(cfg.seed, 3))
    y2 = src.row_sketch(w, right)

    null_thresh = float(np.max(np.abs(y2 @ right)))
    if null_thresh == 0.0:
        path, mus, iters = np.zeros((PATH_POINTS, n2)), np.zeros(PATH_POINTS), 0
    else:
        mus = np.geomspace(MU_PATH_LO, 1.0, PATH_POINTS) * null_thresh
        coeffs, iters = lasso_path_solve(right, y2, mus, max_iters=prox.MAX_ITERS)
        path = np.abs(coeffs.T)
    refit = _refit(right, y2, path)
    if refit is None:
        quality = [_path_cut(s) for s in path]
        # favor the cleanest separation; among equals the one declaring more
        best = max(range(len(path)), key=lambda i: (quality[i][0], quality[i][1], -i))
        declared = _declare(path[best], *quality[best])
    else:
        best, declared = refit
    scores = path[best]
    if np.max(scores) <= 10.0 * np.linalg.norm(phi) * leak:
        # bench/tracing.py counts an all-zero extract_support call as a guard firing
        declared = extract_support(np.zeros(n2))
    converged = sol.converged and iters < prox.MAX_ITERS
    est = SupportEstimate(scores, declared, path, converged, float(mus[best]))
    return est, src.measurements


def sacos(M: np.ndarray, cfg: AcosConfig) -> tuple[SupportEstimate, int]:
    """Single-compression variant: sketch every column once (m n2
    measurements), learn the subspace from a column subsample, and score
    each sketched column by its residual norm outside the subspace."""
    src = MatrixSource(M)
    n1, n2 = src.shape
    cols = _sample_columns(n2, cfg)
    sketch = make_gaussian_sketch(cfg.m, n1, derive_seed(cfg.seed, 2))
    Y = src.sketch(sketch.matrix)

    lam = _resolve_lambda(cfg, n2)
    sol = outlier_pursuit(Y[:, cols], lam)
    basis = subspace_basis(sol.low_rank)
    scores = np.linalg.norm(basis.project_out(Y), axis=0)
    est = SupportEstimate(scores, extract_support(scores), scores[None], sol.converged)
    return est, src.measurements


def sacos_missing(
    M_obs: np.ndarray, mask: np.ndarray, cfg: AcosConfig
) -> tuple[SupportEstimate, float]:
    """Missing-data variant over entry-sampled data.

    The sketch is a row subsample, so only observed entries in the selected
    rows are ever read, and unobserved entries count as zeros from then on.
    The separation step solves the masked program, and each column's score
    is the residual of its observed subvector against the basis restricted
    to its observed rows (fit by its normal equations, all columns in one
    batched solve).  Columns with no observations, or with no more
    observations than the basis dimension, score zero and are flagged; no
    zero score takes part in the declaration.  The mask is boolean or holds
    exactly 0 and 1 (``solver.as_mask``); a sample it does not observe at
    all raises PipelineError.  Returns the fraction of matrix entries read.
    """
    src = MatrixSource(M_obs)
    mask = as_mask(mask, src.shape)
    n1, n2 = src.shape
    rows = make_row_subsampler(n1, cfg.m, derive_seed(cfg.seed, 2)).indices
    cols = _sample_columns(n2, cfg)
    mask_r = mask[rows]
    data_r = src.masked_rows(rows, mask_r)
    if not mask_r[:, cols].any():
        raise PipelineError("the mask observes no entry of the sampled rows and columns")

    lam = _resolve_lambda(cfg, n2)
    sol = rmc_solve(data_r[:, cols], mask_r[:, cols], lam)
    basis = subspace_basis(sol.low_rank)

    # each scored column's least-squares fit by the basis rows it observes,
    # from its normal equations; a singular Gram takes the pseudo-inverse
    B, d = basis.basis, basis.dim
    counts = mask_r.sum(axis=0)
    flags = {"unobserved": counts == 0, "rank_deficient": (counts > 0) & (counts <= d)}
    scored = counts > d
    W, data_s = mask_r[:, scored].T, data_r[:, scored].T
    gram = (W @ (B[:, :, None] * B[:, None, :]).reshape(cfg.m, d * d)).reshape(len(W), d, d)
    rhs = (data_s @ B)[:, :, None]
    try:
        coef = np.linalg.solve(gram, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        coef = (np.linalg.pinv(gram, hermitian=True) @ rhs)[:, :, 0]
    scores = np.zeros(n2)
    scores[scored] = np.linalg.norm(data_s - W * (coef @ B.T), axis=1)
    est = SupportEstimate(scores, extract_support(scores), scores[None], sol.converged,
                          column_flags=flags)
    return est, src.measurements / (n1 * n2)


def detect(
    mode: str, M: np.ndarray, cfg: AcosConfig, mask: np.ndarray | None = None
) -> tuple[SupportEstimate, float]:
    """Run the pipeline named by ``mode`` (one of MODES) on M.

    Returns the estimate and the sampling rate, the fraction of the
    n1 x n2 entries measured.  ``mask`` is required by the missing-data
    mode and accepted by no other: passing one to acos or sacos, or none
    to sacos_missing, raises ValueError, as does any other broken
    ``check_mode`` rule.
    """
    check_mode(mode, cfg, mask is not None)
    if mode == "sacos_missing":
        return sacos_missing(M, mask, cfg)
    est, count = (acos if mode == "acos" else sacos)(M, cfg)
    return est, count / np.size(M)


def measurement_count(
    cfg: AcosConfig, realized_s: int, mode: str, n1: int, n2: int
) -> tuple[int, float]:
    """Closed-form measurement total and sampling rate for a pipeline run
    that passes ``check_mode``: acos collects realized_s * m + p scalars and
    sacos m * n2.  The count of sacos_missing depends on the mask and has no
    closed form here; it and a broken mode rule raise ValueError.
    """
    check_mode(mode, cfg, mode == "sacos_missing")
    if mode == "sacos_missing":
        raise ValueError("the measurement count of mode sacos_missing depends on the mask "
                         "and has no closed form here")
    count = realized_s * cfg.m + cfg.p if mode == "acos" else cfg.m * n2
    return count, count / float(n1 * n2)
