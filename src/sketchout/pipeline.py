"""End-to-end outlier-column identification pipelines.

``acos`` is the two-step adaptive procedure: learn the sketched low-rank
column space from a random column subsample, then recover outlier
locations by l1 decoding of a doubly compressed residual (one probe row
against the subspace complement, one dense compression across columns).
Only the probe row depends on step 1: the compression across columns is
non-adaptive, so when the process has a CPU that none of its threads
claims (``_spare_cpu``), acos draws it on a worker thread while step 1
runs on the calling thread.
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
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import prox, sketching
from .rng import derive_seed
# bench/tracing.py rebinds these layer names in this module to time them,
# with one span stack for the calling thread; acos's drawing worker calls
# sketching.make_gaussian_sketch instead, so it opens no span
from .sketching import (
    make_column_sampler,
    make_gaussian_sketch,
    make_probe_vector,
    make_row_subsampler,
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
    integers.
    """

    gamma: float
    m: int
    p: int = 0
    lam: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_kind(numbers.Integral, "an integer", m=self.m, p=self.p, seed=self.seed)
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


class MatrixSource:
    """Column-access provider around the data matrix.

    The pipelines read the data only through these methods; ``measurements``
    counts every scalar collected.  The data must be real (``prox.as_real``).
    Each returned block must be finite, with a finite sum of squares, or the
    read raises ValueError: downstream least-squares steps cannot use it.
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

    def sketch(self, op: np.ndarray, idx=slice(None)) -> np.ndarray:
        """Phi M[:, idx], every column by default; counts rows(Phi) * |idx|
        scalars."""
        return self._collect(lambda: op @ self._M[:, idx])

    def row_sketch(self, w: np.ndarray, right: np.ndarray) -> np.ndarray:
        """(w M) right^T for a single row vector w; counts rows(right)."""
        return self._collect(lambda: (w @ self._M) @ right.T)

    def masked_rows(self, rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """M[rows] where ``mask`` (|rows| x n2) is true, zero elsewhere;
        counts the observed entries only."""
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


def _spare_cpu() -> bool:
    """True when this process may run on more CPUs than it has threads
    (BLAS pools included), so a worker thread contends with none of them;
    false where the counts cannot be read (non-Linux hosts)."""
    try:
        return len(os.sched_getaffinity(0)) > len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return False


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


def extract_support(scores: np.ndarray) -> np.ndarray:
    """The declared outlier set of a score vector, as sorted indices.

    Declares the scores above the largest multiplicative gap in the sorted
    sequence, provided that gap exceeds GAP_RATIO (exactly zero scores
    below any positive ones always qualify); otherwise declares nothing.
    """
    scores = prox.as_real(scores, "scores", ndim=1)
    ratio, count = _gap_cut(scores)
    if ratio > GAP_RATIO and count < scores.size:
        return np.sort(np.argsort(scores)[::-1][:count])
    return np.array([], dtype=int)


def acos(M: np.ndarray, cfg: AcosConfig) -> tuple[SupportEstimate, int]:
    """Two-step adaptive identification of outlier columns.

    Step 1 sketches a Bernoulli column subsample, separates it into
    low-rank plus column-sparse parts, and learns the sketched subspace.
    Step 2 collects one probe row of the residual, compresses it across
    columns, and decodes the outlier locations along a geometric path of
    LASSO weights; the returned scores belong to the path point with the
    best multiplicative separation.  Also returns the exact number of
    scalar measurements collected (|S| m + p).

    The p x n2 compression of step 2 is non-adaptive.  When a CPU is
    spare (``_spare_cpu``) a one-thread pool, created and shut down inside
    this call, draws it during step 1; otherwise it is drawn after step 1.
    Both draw it from the same seed, so the result is the same.
    """
    check_mode("acos", cfg, False)
    src = MatrixSource(M)
    n1, n2 = src.shape
    right_seed = derive_seed(cfg.seed, 3)
    spare = _spare_cpu()
    with ThreadPoolExecutor(1) if spare else nullcontext() as pool:
        drawn = pool.submit(sketching.make_gaussian_sketch, cfg.p, n2, right_seed) if spare else None
        cols = _sample_columns(n2, cfg)
        sketch = make_gaussian_sketch(cfg.m, n1, derive_seed(cfg.seed, 2))
        Y1 = src.sketch(sketch.matrix, cols)

        lam = _resolve_lambda(cfg, n2)
        sol = outlier_pursuit(Y1, lam)
        basis = subspace_basis(sol.low_rank)

        right = drawn.result() if spare else make_gaussian_sketch(cfg.p, n2, right_seed)
    phi = make_probe_vector(cfg.m, derive_seed(cfg.seed, 4)).matrix.ravel()
    w = basis.project_out(phi) @ sketch.matrix  # phi P Phi, 1 x n1
    y2 = src.row_sketch(w, right.matrix)

    null_thresh = float(np.max(np.abs(right.matrix.T @ y2)))
    iters = 0
    if null_thresh == 0.0:
        path, mus, best = np.zeros((PATH_POINTS, n2)), np.zeros(PATH_POINTS), 0
    else:
        mus = np.geomspace(MU_PATH_LO, 1.0, PATH_POINTS) * null_thresh
        coeffs, iters = lasso_path_solve(right.matrix, y2, mus, max_iters=prox.MAX_ITERS)
        path = np.abs(coeffs.T)
        quality = [_gap_cut(s) for s in path]
        # favor the cleanest separation; among equals the one declaring more
        best = max(range(len(path)), key=lambda i: (quality[i][0], quality[i][1], -i))
    scores = path[best]
    # declaration guard: with no outliers the decoded coefficients are pure
    # solver leakage, whose scale is measurable from the already-collected
    # sketch; genuine outlier responses sit orders of magnitude above.
    leak = np.median(np.linalg.norm(basis.project_out(Y1), axis=0))
    guarded = np.max(scores) <= 10.0 * np.linalg.norm(phi) * leak
    # bench/tracing.py counts an all-zero extract_support call as a guard firing
    declared = extract_support(np.zeros(n2) if guarded else scores)
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
    observations than the basis dimension, score zero, are flagged, and
    take no part in the declaration.  The mask is boolean or holds exactly
    0 and 1 (``solver.as_mask``).  Returns the fraction of matrix entries
    read.
    """
    src = MatrixSource(M_obs)
    mask = as_mask(mask, src.shape)
    n1, n2 = src.shape
    rows = make_row_subsampler(n1, cfg.m, derive_seed(cfg.seed, 2)).indices
    cols = _sample_columns(n2, cfg)
    mask_r = mask[rows]
    data_r = src.masked_rows(rows, mask_r)

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
    # a placeholder zero is no score: below positive ones it would count as
    # a clean gap (extract_support) and declare every scored column
    declared = np.flatnonzero(scored)[extract_support(scores[scored])]
    est = SupportEstimate(scores, declared, scores[None], sol.converged, column_flags=flags)
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
    """Closed-form measurement total and sampling rate for a pipeline run.

    acos collects realized_s * m + p scalars; sacos collects m * n2.  The
    count of sacos_missing depends on the mask and has no closed form here.
    """
    if mode == "acos":
        count = realized_s * cfg.m + cfg.p
    elif mode == "sacos":
        count = cfg.m * n2
    elif mode == "sacos_missing":
        raise ValueError("the measurement count of mode sacos_missing depends on the mask "
                         "and has no closed form here")
    else:
        raise ValueError("unknown mode %r" % mode)
    return count, count / float(n1 * n2)
