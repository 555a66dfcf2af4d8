"""Random measurement operators and sampling-budget validators.

Four seeded constructors build the operators the pipelines apply:

* ``make_gaussian_sketch`` -- an m x n matrix with i.i.d. N(0, 1/m)
  entries, so squared vector lengths are preserved in expectation (a
  distributional Johnson-Lindenstrauss map with f(eps) = eps^2/4 - eps^3/6).
* ``make_column_sampler`` -- a column selector I[:, S] where each index
  enters S independently with probability gamma.  The membership draw for
  index i depends only on (seed, i), so selections are prefix-stable in n.
* ``make_row_subsampler`` -- m distinct rows chosen uniformly at random.
* ``make_probe_vector`` -- a 1 x m probe with i.i.d. standard normal
  entries.

The budget functions evaluate the closed-form sufficient sample sizes for
the recovery guarantee at JL distortion eps = 1/4, using natural
logarithms throughout.  They return ceilings; infeasibility (a required
rate above 1) is signalled, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import generator

__all__ = ["F_QUARTER", "SampleBudget", "SketchOperator", "f_jl", "make_column_sampler",
           "make_gaussian_sketch", "make_probe_vector", "make_row_subsampler", "max_outliers",
           "min_col_budget", "min_gamma", "min_row_budget"]


@dataclass
class SketchOperator:
    """A realized measurement operator.

    ``matrix`` is the dense realization (rows x cols).  Selectors also
    carry ``indices``, the selected row/column indices in increasing order.
    Each constructor reproduces its operator bit-for-bit from its arguments.
    """

    matrix: np.ndarray = field(repr=False)
    indices: np.ndarray | None = field(default=None, repr=False)


def make_gaussian_sketch(rows: int, cols: int, seed: int) -> SketchOperator:
    """Dense sketch with i.i.d. N(0, 1/rows) entries."""
    if rows < 1 or cols < 1:
        raise ValueError("sketch dimensions must be positive")
    mat = generator(seed).standard_normal((rows, cols))
    mat *= 1.0 / math.sqrt(rows)
    return SketchOperator(mat)


def make_column_sampler(n2: int, gamma: float, seed: int) -> SketchOperator:
    """Bernoulli(gamma) column selector over n2 columns.

    Returns the operator I[:, S] (shape n2 x |S|) with the selected indices
    in increasing order; the selection may be empty.
    """
    if n2 < 1:
        raise ValueError("n2 must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    draws = generator(seed).random(n2)
    idx = np.nonzero(draws < gamma)[0]
    mat = np.zeros((n2, idx.size))
    mat[idx, np.arange(idx.size)] = 1.0
    return SketchOperator(mat, idx)


def make_row_subsampler(n1: int, m: int, seed: int) -> SketchOperator:
    """Uniformly random choice of m distinct rows out of n1."""
    if not 1 <= m <= n1:
        raise ValueError("need 1 <= m <= n1")
    idx = np.sort(generator(seed).choice(n1, size=m, replace=False))
    mat = np.zeros((m, n1))
    mat[np.arange(m), idx] = 1.0
    return SketchOperator(mat, idx)


def make_probe_vector(m: int, seed: int) -> SketchOperator:
    """1 x m probe with i.i.d. standard normal entries."""
    if m < 1:
        raise ValueError("m must be positive")
    mat = generator(seed).standard_normal((1, m))
    return SketchOperator(mat)


def f_jl(eps: float) -> float:
    """JL tail exponent f(eps) = eps^2/4 - eps^3/6 for Gaussian sketches."""
    return eps * eps / 4.0 - eps ** 3 / 6.0


#: f(1/4), the value at which all budget constants are stated (= 5/384).
F_QUARTER = f_jl(0.25)


@dataclass
class SampleBudget:
    """Problem parameters entering the sampling-budget formulas.

    Of the ``n2`` columns, ``k`` (1 to n2) are outliers and ``n_L`` (1 to
    n2) are nonzero low-rank columns.  ``mu_L`` is the column incoherence
    of the low-rank part, in [1, n_L/r]; ``delta`` the acceptable failure
    probability.  The JL distortion is fixed at 1/4 (``F_QUARTER``)
    because the guarantee constants are stated there.
    """

    n2: int
    n_L: int
    r: int
    k: int
    mu_L: float = 1.0
    delta: float = 0.1

    def __post_init__(self) -> None:
        if self.n2 < 1:
            raise ValueError("n2 must be at least 1")
        if not 1 <= self.k <= self.n2:
            raise ValueError("k must lie in [1, n2]")
        if not 1 <= self.n_L <= self.n2:
            raise ValueError("n_L must lie in [1, n2]")
        if self.r < 1:
            raise ValueError("rank must be at least 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 1.0 <= self.mu_L < math.inf:
            raise ValueError("mu_L must be finite and at least 1")


def min_row_budget(b: SampleBudget) -> int:
    """Smallest sufficient number of sketch rows m.

    ceil((5(r+1) + ln k + ln(2/delta)) / f(1/4)).
    """
    num = 5.0 * (b.r + 1) + math.log(2.0 / b.delta) + math.log(b.k)
    return math.ceil(num / F_QUARTER)


def min_col_budget(b: SampleBudget) -> int:
    """Smallest sufficient compression size p for the decoding step.

    ceil((11k + 2k ln(n2/k) + ln(2/delta)) / f(1/4)).
    """
    num = 11.0 * b.k + 2.0 * b.k * math.log(b.n2 / b.k) + math.log(2.0 / b.delta)
    return math.ceil(num / F_QUARTER)


def min_gamma(b: SampleBudget) -> float:
    """Smallest sufficient column-sampling rate gamma.

    max of 1/20, 200 ln(5/delta)/n_L, 24 ln(10/delta)/n2 and
    10 r mu_L ln(5r/delta)/n_L.  A value above 1 means the budget is
    infeasible at this size; the caller decides whether to accept a
    vacuous guarantee.
    """
    return max(
        1.0 / 20.0,
        200.0 * math.log(5.0 / b.delta) / b.n_L,
        24.0 * math.log(10.0 / b.delta) / b.n2,
        10.0 * b.r * b.mu_L * math.log(5.0 * b.r / b.delta) / b.n_L,
    )


def max_outliers(b: SampleBudget) -> int:
    """Largest outlier count covered by the guarantee:
    floor(n2 / (40 (1 + 121 r mu_L)))."""
    return int(b.n2 / (40.0 * (1.0 + 121.0 * b.r * b.mu_L)))
