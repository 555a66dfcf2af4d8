"""Synthetic instances, success scoring, and the phase-transition harness.

Instances follow the equal-energy planted model: L = [U V^T, 0] with
Gaussian factors, C = [0, W] with W entries N(0, r), so every column of
M = L + C has the same expected squared norm n1 * r.  Outliers occupy the
trailing block.  Permuting the columns (and mask) of a planted instance
permutes the sacos and sacos_missing declared sets in the tested cases;
acos with fixed seeds may declare a different set, because its seeded
operators are tied to column positions.

A trial is deemed successful when, for at least one score vector along the
regularization path, some threshold separates the true outlier scores from
all the rest (the oracle rule).  The phase grid sweeps (rank, outliers)
cells, runs one pipeline for each of several separation weights, and
records the pointwise-maximum success frequency per cell.  Its keywords
are the keys of a ``sketchout phase`` config.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .pipeline import AcosConfig, _check_kind, check_mode, detect
from .prox import as_real
from .rng import derive_seed, generator
from .sketching import _indices

__all__ = ["PhaseGridResult", "ProblemInstance", "add_noise", "bernoulli_mask",
           "generate_instance", "oracle_success", "phase_grid"]


@dataclass
class ProblemInstance:
    """Planted low-rank plus column-outlier matrix with ground truth."""

    M: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    true_support: np.ndarray


def generate_instance(
    n1: int, n2: int, r: int, k: int, seed: int, normalize: bool = False
) -> ProblemInstance:
    """Draw a planted instance; deterministic in (parameters, seed)."""
    if not 0 <= k < n2:
        raise ValueError("need 0 <= k < n2")
    if not 1 <= r <= min(n1, n2 - k):
        raise ValueError("rank must satisfy 1 <= r <= min(n1, n2 - k)")
    rng = generator(seed)
    n_low = n2 - k
    U = rng.standard_normal((n1, r))
    V = rng.standard_normal((n_low, r))
    L = np.concatenate([U @ V.T, np.zeros((n1, k))], axis=1)
    W = rng.standard_normal((n1, k)) * math.sqrt(r)
    C = np.concatenate([np.zeros((n1, n_low)), W], axis=1)
    if normalize:
        norms = np.linalg.norm(L + C, axis=0)
        L = L / norms
        C = C / norms
    return ProblemInstance(M=L + C, L=L, C=C, true_support=np.arange(n_low, n2))


def add_noise(inst: ProblemInstance, sigma: float, seed: int) -> ProblemInstance:
    """Additive i.i.d. N(0, sigma^2) perturbation of M; L and C unchanged."""
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative and finite, got %r" % (sigma,))
    if sigma == 0:
        return inst
    N = generator(seed).standard_normal(inst.M.shape) * sigma
    return replace(inst, M=inst.L + inst.C + N)


def bernoulli_mask(n1: int, n2: int, p_omega: float, seed: int) -> np.ndarray:
    """Entrywise-independent observation mask with density p_omega."""
    if not 0.0 < p_omega <= 1.0:
        raise ValueError("p_omega must lie in (0, 1]")
    return generator(seed).random((n1, n2)) < p_omega


def oracle_success(score_path: np.ndarray, true_support: np.ndarray) -> bool:
    """Threshold-separation success test over a path of score vectors.

    ``score_path`` is 2-D, one score vector per row, and ``true_support``
    1-D integer column indices.  True iff some vector has every true-outlier
    score strictly above every other score.  With an empty support (``[]``
    too), success means some vector is identically zero (no spurious response).
    """
    score_path = as_real(score_path, "score_path", ndim=2)
    if len(score_path) == 0:
        raise ValueError("need a 2-D path of at least one score vector")
    support = _indices(true_support, score_path.shape[1], "true_support")
    if support.size == 0:
        return not score_path.any(axis=1).all()
    for s in score_path:
        lowest = s[support].min()
        inliers = np.delete(s, support)
        # an empty complement still needs a positive threshold to fit under
        if lowest > (inliers.max() if inliers.size else 0.0):
            return True
    return False


@dataclass
class PhaseGridResult:
    """Success frequencies over a (rank, outlier-count) grid.

    ``grid`` maps (r, k) to the pointwise maximum over the separation
    weights of the per-weight success frequencies; ``cell_lambda_best`` and
    ``cell_rate`` carry the winning weight and the mean realized sampling
    rate per cell.  Infeasible cells (k >= n2 or r > min(n1, n2 - k)) are
    absent.
    """

    grid: dict
    trials_per_cell: int
    sampling_rate: float
    r_values: list
    k_values: list
    cell_lambda_best: dict
    cell_rate: dict


def phase_grid(
    *, n1: int, n2: int, m: int, r_values: list, k_values: list, lambda_set: list,
    mode: str = "acos", gamma: float = 0.2, p: int = 0, trials: int = 20, seed: int = 0,
    noise_sigma: float = 0.0, p_omega: float | None = None, normalize: bool = False,
) -> PhaseGridResult:
    """Monte-Carlo success frequencies over an (r, k) grid.

    The keywords are exactly the keys of a ``sketchout phase`` config.
    Every (cell, weight, trial) gets a fresh instance and fresh operators
    under a seed derived from (seed, r, k, weight index, trial), so cells
    and trials are order-independent and reproducible; each trial runs
    ``AcosConfig(gamma, m, p)`` with the weight as ``lam`` and the derived
    seed.  ``p_omega`` is the observation rate of mode sacos_missing and
    applies to no other mode.  Before any trial, each value's type is
    checked, a repeated grid value or weight is rejected (a repeated weight
    would draw fresh trials and inflate the maximum over weights), one
    ``AcosConfig`` is built per weight (so ``m`` and ``p`` are integers,
    ``gamma`` is a number and each weight is positive and finite),
    ``check_mode`` runs with a mask exactly when ``p_omega`` is set, and a
    grid without a feasible cell is rejected; each raises ValueError.
    """
    _check_kind(numbers.Integral, "an integer", n1=n1, n2=n2, trials=trials, seed=seed)
    _check_kind(numbers.Real, "a number", noise_sigma=noise_sigma)
    if p_omega is not None:
        _check_kind(numbers.Real, "a number", p_omega=p_omega)
    _check_kind(bool, "true or false", normalize=normalize)
    _check_kind(list, "a list", r_values=r_values, k_values=k_values, lambda_set=lambda_set)
    for key, axis in (("r_values", r_values), ("k_values", k_values)):
        for value in axis:
            _check_kind(numbers.Integral, "a list of integers", **{key: value})
    if trials < 1 or not (r_values and k_values and lambda_set):
        raise ValueError("need nonempty grid axes and weights, and trials >= 1")
    for lam in lambda_set:
        _check_kind(numbers.Real, "numbers", **{"separation weights": lam})
    for key, values in (("r_values", r_values), ("k_values", k_values), ("lambda_set", lambda_set)):
        if len(set(values)) < len(values):
            raise ValueError("%s repeats a value: %r" % (key, values))
    configs = [AcosConfig(gamma=gamma, m=m, p=p, lam=lam) for lam in lambda_set]
    check_mode(mode, configs[0], p_omega is not None)
    cells = [(r, k) for r in r_values for k in k_values if k < n2 and r <= min(n1, n2 - k)]
    if not cells:
        raise ValueError("no feasible (r, k) cell: each needs k < n2 and r <= min(n1, n2 - k)")

    grid, cell_best, cell_rate = {}, {}, {}
    for r, k in cells:
        freqs = []
        rates = []
        for li, lam_cfg in enumerate(configs):
            wins = 0
            for t in range(trials):
                cell_seed = derive_seed(seed, r, k, li, t)
                inst = generate_instance(
                    n1, n2, r, k, derive_seed(cell_seed, 0), normalize
                )
                inst = add_noise(inst, noise_sigma, derive_seed(cell_seed, 1))
                mask = None
                if p_omega is not None:
                    mask = bernoulli_mask(n1, n2, p_omega, derive_seed(cell_seed, 2))
                cfg = replace(lam_cfg, seed=derive_seed(cell_seed, 3))
                est, rate = detect(mode, inst.M, cfg, mask)
                rates.append(rate)
                if oracle_success(est.score_path, inst.true_support):
                    wins += 1
            freqs.append(wins / trials)
        best = int(np.argmax(freqs))
        grid[(r, k)] = freqs[best]
        cell_best[(r, k)] = lambda_set[best]
        cell_rate[(r, k)] = float(np.mean(rates))
    return PhaseGridResult(
        grid=grid,
        trials_per_cell=trials,
        sampling_rate=sum(cell_rate.values(), 0.0) / len(cell_rate),
        r_values=list(r_values),
        k_values=list(k_values),
        cell_lambda_best=cell_best,
        cell_rate=cell_rate,
    )
