"""Random measurement operators and sampling-budget validators.

Five seeded constructors build the operators the pipelines apply:

* ``make_gaussian_sketch`` -- an m x n matrix with i.i.d. N(0, 1/m)
  entries, so squared vector lengths are preserved in expectation (a
  distributional Johnson-Lindenstrauss map with f(eps) = eps^2/4 - eps^3/6).
* ``make_sparse_sign_sketch`` -- an m x n matrix whose every column sums
  ``SPARSE_NONZEROS`` entries +-1/sqrt(s) at independently drawn rows,
  held by those nonzeros as a ``SparseColumns``; acos compresses across
  columns with it (``pipeline.acos`` says why).
* ``make_column_sampler`` -- a column selector I[:, S] where each index
  enters S independently with probability gamma.  The membership draw for
  index i depends only on (seed, i), so selections are prefix-stable in n.
* ``make_row_subsampler`` -- m distinct rows chosen uniformly at random.
* ``make_probe_vector`` -- a 1 x m probe with i.i.d. standard normal
  entries.

A ``SparseColumns`` holds a matrix by a fixed number of (row, value) slots
per column, checked at construction, and applies it on those slots alone.

The budget functions evaluate the paper's sufficient sample sizes, stated
for Gaussian sketches at JL distortion eps = 1/4, in natural logarithms.
They return ceilings; infeasibility (a required rate above 1) is
signalled, never clamped.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import generator

__all__ = ["F_QUARTER", "SPARSE_NONZEROS", "SampleBudget", "SketchOperator", "SparseColumns",
           "make_column_sampler", "make_gaussian_sketch", "make_probe_vector",
           "make_row_subsampler", "make_sparse_sign_sketch", "max_outliers", "min_col_budget",
           "min_gamma", "min_row_budget"]

#: Nonzeros drawn per column of a sparse sign sketch.
SPARSE_NONZEROS = 8


@dataclass
class SketchOperator:
    """A realized measurement operator.

    ``matrix`` is the dense realization (rows x cols).  Selectors also
    carry ``indices``, the selected row/column indices in increasing order.
    Each constructor, and ``make_sparse_sign_sketch``, which returns a
    ``SparseColumns``, reproduces its operator bit-for-bit from its
    arguments.
    """

    matrix: np.ndarray = field(repr=False)
    indices: np.ndarray | None = field(default=None, repr=False)


def _indices(x, n: int, name: str) -> np.ndarray:
    """``x`` as an array of 1-D integer indices below ``n``, or ValueError
    naming ``name``; any 1-D empty input (``[]`` too) is the empty index."""
    x = np.asarray(x, dtype=np.intp if np.size(x) == 0 else None)
    if x.ndim != 1 or x.dtype.kind not in "iu" or not np.all((x >= 0) & (x < n)):
        raise ValueError("%s must be 1-D integer indices below %d" % (name, n))
    return x


def _scatter(rows: np.ndarray, values: np.ndarray, height: int) -> np.ndarray:
    """The dense height x k float matrix whose column j sums values[:, j] at
    rows rows[:, j], 0.0 plus its values in slot order, even with no slots."""
    k = rows.shape[1]
    flat = (rows * k + np.arange(k)).ravel()
    dense = np.bincount(flat, values.ravel(), height * k).astype(float, copy=False)
    return dense.reshape(height, k)


@dataclass(frozen=True, eq=False)
class SparseColumns:
    """A ``shape`` matrix held by s slots per column: column j holds
    ``values[i, j]`` at row ``rows[i, j]`` for each slot i (both s x cols).
    Construction raises ValueError unless ``shape`` is a pair of positive
    integers, the rows are integers in [0, rows), the values are real, and
    no two nonzero slots of a column share a row (``col_sq`` sums squared
    slots; zero slots may repeat rows); a NaN or an infinity among the
    values is left to the readers that need them finite.

    ``S @ x`` for a vector x of length cols is one scatter-add over the
    slots, ``y @ S`` (= S^T y) for a vector y of length rows one gather,
    ``columns`` builds a dense block and ``col_sq`` the squared column
    norms; ``np.asarray(S)`` is the dense matrix.  Neither product checks
    its operand.
    """

    rows: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    shape: tuple[int, int]

    # y @ S for an ndarray y calls __rmatmul__, not a dense product through
    # __array__
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        if not (isinstance(self.shape, tuple) and len(self.shape) == 2 and all(
                isinstance(d, numbers.Integral) and not isinstance(d, bool) and d >= 1
                for d in self.shape)):
            raise ValueError("shape must be a pair of positive integers, got %r" % (self.shape,))
        if self.values.shape != self.rows.shape or self.rows.shape[1:] != self.shape[1:]:
            raise ValueError("rows and values must both be s x %d arrays" % self.shape[1])
        rows = _indices(self.rows.ravel(), self.shape[0], "rows")
        object.__setattr__(self, "rows", rows.reshape(self.rows.shape))  # empty rows as integers
        if self.values.dtype.kind not in "fiu":
            raise ValueError("values must be real, got dtype %s" % self.values.dtype)
        # zero slots take distinct negative keys, so only nonzero ones can meet
        key = np.where(self.values != 0, self.rows, -1 - np.arange(len(self.rows))[:, None])
        key.sort(axis=0)
        if (key[1:] == key[:-1]).any():
            raise ValueError("the nonzero slots of a column must lie in distinct rows")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = _scatter(self.rows, self.values, self.shape[0])
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.bincount(self.rows.ravel(), (self.values * x).ravel(), self.shape[0])
        return out.astype(float, copy=False)

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->j", self.values, y[self.rows])

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The dense block of the columns ``cols`` (1-D integer indices),
        bit for bit ``np.asarray(self)[:, cols]``."""
        cols = _indices(cols, self.shape[1], "cols")
        return _scatter(self.rows[:, cols], self.values[:, cols], self.shape[0])

    def col_sq(self) -> np.ndarray:
        """The squared l2 norm of every column."""
        return np.einsum("ij,ij->j", self.values, self.values)


def make_gaussian_sketch(rows: int, cols: int, seed: int) -> SketchOperator:
    """Dense sketch with i.i.d. N(0, 1/rows) entries."""
    if rows < 1 or cols < 1:
        raise ValueError("sketch dimensions must be positive")
    mat = generator(seed).standard_normal((rows, cols))
    mat *= 1.0 / math.sqrt(rows)
    return SketchOperator(mat)


def make_sparse_sign_sketch(rows: int, cols: int, seed: int) -> SparseColumns:
    """Sparse sketch: each column sums SPARSE_NONZEROS entries +-1/sqrt(s)
    with independently drawn rows and signs, so it has at most s nonzeros
    and unit squared norm in expectation.  Held by its s draws per column,
    sorted by row, with the draws that collide on a row merged into the
    first of them and the others holding 0."""
    if rows < 1 or cols < 1:
        raise ValueError("sketch dimensions must be positive")
    # one draw in [0, 2 rows) per entry: its row, and its sign from the half
    draw = generator(seed).integers(2 * rows, size=(SPARSE_NONZEROS, cols))
    # each column's draws sorted by row, the sign in the key's low bit
    key = np.sort(2 * (draw % rows) + (draw >= rows), axis=0)
    row = key >> 1
    sign = 1.0 - 2.0 * (key & 1)
    # fold each run of equal rows into its first slot, last slot first; the
    # sums are small integers, so exact in any order
    dup = row[1:] == row[:-1]
    for i in range(SPARSE_NONZEROS - 1, 0, -1):
        moved = sign[i] * dup[i - 1]
        sign[i - 1] += moved
        sign[i] -= moved
    sign *= 1.0 / math.sqrt(SPARSE_NONZEROS)
    return SparseColumns(row, sign, (rows, cols))


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
    """1 x m probe with i.i.d. standard normal entries: the one-row Gaussian sketch."""
    return make_gaussian_sketch(1, m, seed)


#: f(1/4) for the JL tail exponent f(eps) = eps^2/4 - eps^3/6 of Gaussian
#: sketches, the distortion at which all budget constants are stated.
F_QUARTER = 5.0 / 384.0


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
