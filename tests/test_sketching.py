import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchout.rng import generator
from sketchout.sketching import (
    F_QUARTER,
    SPARSE_NONZEROS,
    SampleBudget,
    SparseColumns,
    make_column_sampler,
    make_gaussian_sketch,
    make_probe_vector,
    make_row_subsampler,
    make_sparse_sign_sketch,
    max_outliers,
    min_col_budget,
    min_gamma,
    min_row_budget,
)

from conftest import f_jl, held


class TestGaussianSketch:
    def test_zero_vector_maps_to_zero(self):
        op = make_gaussian_sketch(4, 4, seed=7)
        assert np.array_equal(op.matrix @ np.zeros(4), np.zeros(4))

    def test_seeded_determinism(self):
        # exactly the seeded draw, scaled
        for rows, cols, seed in ((33, 17, 123), (300, 1000, 5)):
            want = generator(seed).standard_normal((rows, cols)) * (1 / math.sqrt(rows))
            assert np.array_equal(make_gaussian_sketch(rows, cols, seed).matrix, want)

    def test_norm_preserving_in_expectation(self):
        op = make_gaussian_sketch(200, 50, seed=1)
        rng = np.random.Generator(np.random.Philox(key=99))
        v = rng.standard_normal((50, 1000))
        v /= np.linalg.norm(v, axis=0)
        sq = np.sum((op.matrix @ v) ** 2, axis=0)
        assert abs(sq.mean() - 1.0) < 0.05

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            make_gaussian_sketch(0, 5, seed=0)
        with pytest.raises(ValueError):
            make_gaussian_sketch(5, 0, seed=0)

    @pytest.mark.parametrize("m,eps", [(100, 0.25), (100, 0.5)])
    def test_jl_tail_smoke(self, m, eps):
        # light version of the acceptance JL suite
        op = make_gaussian_sketch(m, 60, seed=5)
        rng = np.random.Generator(np.random.Philox(key=17))
        v = rng.standard_normal((60, 2000))
        v /= np.linalg.norm(v, axis=0)
        sq = np.sum((op.matrix @ v) ** 2, axis=0)
        freq = np.mean(np.abs(sq - 1.0) >= eps)
        bound = 2.0 * math.exp(-m * f_jl(eps))
        se = math.sqrt(bound * (1 - bound) / 2000) if bound < 1 else 0.0
        assert freq <= min(1.0, bound + 3 * se)


class TestSparseSignSketch:
    def test_seeded_determinism(self):
        a, b = (np.asarray(make_sparse_sign_sketch(300, 1000, 5)) for _ in range(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, np.asarray(make_sparse_sign_sketch(300, 1000, 6)))

    def test_dense_matrix_pinned(self):
        # the bytes of the dense matrices the sketch was first drawn as, one
        # bincount of the signs over the rows x cols entries, then scaled
        dense = b"".join(
            np.asarray(make_sparse_sign_sketch(r, c, s)).tobytes()
            for r, c, s in [(300, 1000, 5), (1, 500, 1), (3, 40, 2), (300, 2000, 3)]
        )
        assert hashlib.sha1(dense).hexdigest() == "af295cfb6443c254ba0963fb9c5415f195ad9d55"

    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 40), (300, 1000)])
    def test_shape(self, rows, cols):
        op = make_sparse_sign_sketch(rows, cols, seed=2)
        assert op.shape == np.asarray(op).shape == (rows, cols)
        assert op.rows.shape == op.values.shape == (SPARSE_NONZEROS, cols)

    @pytest.mark.parametrize("rows", [1, 3, 300])
    def test_sparse_columns_of_signed_multiples(self, rows):
        # at most SPARSE_NONZEROS entries per column, each an integer
        # multiple of 1/sqrt(SPARSE_NONZEROS), as colliding signs add
        mat = np.asarray(make_sparse_sign_sketch(rows, 500, seed=rows))
        assert np.count_nonzero(mat, axis=0).max() <= SPARSE_NONZEROS == 8
        units = mat * math.sqrt(SPARSE_NONZEROS)
        assert np.allclose(units, np.round(units), rtol=0, atol=1e-12)
        assert np.abs(np.round(units)).sum(axis=0).max() <= SPARSE_NONZEROS
        # one row holds every entry: each column sums its eight signs
        if rows == 1:
            assert np.all(np.round(units) % 2 == 0)

    @pytest.mark.parametrize("rows", [1, 3, 300])
    def test_colliding_draws_merged(self, rows):
        # each column's slots are sorted by row; a row's first slot holds
        # its entry, and any later slot on that row holds 0
        op = make_sparse_sign_sketch(rows, 500, seed=rows)
        mat = np.asarray(op)
        assert np.all(np.diff(op.rows, axis=0) >= 0)
        first = np.concatenate([np.ones((1, 500), bool), np.diff(op.rows, axis=0) > 0])
        assert np.all(op.values[~first] == 0.0)
        assert np.array_equal(op.values[first], mat[op.rows, np.arange(500)][first])
        assert np.array_equal(np.count_nonzero(op.values, axis=0), np.count_nonzero(mat, axis=0))

    @pytest.mark.parametrize("rows,cols", [(1, 500), (3, 40), (300, 1000)])
    def test_operations_match_dense_matrix(self, rows, cols):
        # at 1 and 3 rows draws collide and merge
        op = make_sparse_sign_sketch(rows, cols, seed=7)
        mat = np.asarray(op)
        rng = np.random.Generator(np.random.Philox(key=21))
        x, y = rng.standard_normal(cols), rng.standard_normal(rows)
        np.testing.assert_allclose(op @ x, mat @ x, rtol=1e-12, atol=1e-12 * np.abs(x).max())
        np.testing.assert_allclose(y @ op, mat.T @ y, rtol=1e-12, atol=1e-12 * np.abs(y).max())
        cols_taken = rng.choice(cols, min(cols, 17), replace=False)
        assert np.array_equal(op.columns(cols_taken), mat[:, cols_taken])
        assert np.array_equal(op.columns(np.arange(cols)), mat)
        np.testing.assert_allclose(op.col_sq(), np.sum(mat * mat, axis=0), rtol=1e-14, atol=0)

    def test_unit_column_norm_in_expectation(self):
        mat = np.asarray(make_sparse_sign_sketch(300, 2000, seed=3))
        assert abs(np.sum(mat * mat, axis=0).mean() - 1.0) < 0.02

    @pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0), (-1, 5), (5, -2)])
    def test_rejects_nonpositive_dimensions(self, rows, cols):
        with pytest.raises(ValueError, match="sketch dimensions must be positive"):
            make_sparse_sign_sketch(rows, cols, seed=0)


#: Valid slots of a 3 x 3 matrix: two per column.
_ROWS = np.array([[0, 1, 2], [2, 0, 1]])
_VALUES = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])


class TestSparseColumns:
    def test_valid_slots_build_their_matrix(self):
        op = SparseColumns(_ROWS, _VALUES, (3, 3))
        assert np.array_equal(np.asarray(op), [[1.0, 3.0, 0.0], [0.0, -2.0, -1.0], [0.0, 0.0, 0.5]])
        # integer values are real, and so is a slot in every row
        SparseColumns(_ROWS, _ROWS, (3, 3))
        D = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(np.asarray(held(D)), D)
        # no slots: empty float rows are the empty index, held as integers
        empty = SparseColumns(np.zeros((0, 3)), np.zeros((0, 3)), (3, 3))
        assert empty.rows.dtype.kind == "i" and np.array_equal(np.asarray(empty), np.zeros((3, 3)))

    def test_no_slots_give_floats(self):
        # np.bincount gives integers for empty weights, so the dense matrix,
        # the product and the block used to be int64 here
        empty = SparseColumns(np.zeros((0, 3), int), np.zeros((0, 3)), (2, 3))
        for out in (np.asarray(empty), empty @ np.ones(3), empty.columns([0, 1]),
                    np.ones(2) @ empty, empty.col_sq()):
            assert out.dtype == np.float64 and not out.any()
        assert (empty @ np.ones(3)).shape == (2,) and empty.columns([0, 1]).shape == (2, 2)

    @pytest.mark.parametrize(
        "rows, values",
        [(_ROWS, _ROWS), (_ROWS, _VALUES.astype(np.float32)), (_ROWS.tolist(), _VALUES.tolist())],
        ids=["int_values", "float32_values", "lists"],
    )
    def test_slots_of_any_real_dtype_give_floats(self, rows, values):
        # the slots are read as arrays and the values held as float64, so no
        # product or norm takes their dtype, even with an integer operand
        op = SparseColumns(rows, values, (3, 3))
        dense = np.asarray(op)
        for out in (dense, op @ np.ones(3, int), np.ones(3, int) @ op, op.columns([0, 2]),
                    op.col_sq()):
            assert out.dtype == np.float64
        assert np.array_equal(op.col_sq(), (dense ** 2).sum(axis=0))
        assert np.array_equal(np.ones(3, int) @ op, dense.sum(axis=0))

    def test_list_slots_are_read_as_arrays(self):
        assert np.asarray(SparseColumns([[0]], [[1.0]], (1, 1))).tolist() == [[1.0]]
        with pytest.raises(ValueError, match="values must be real"):
            SparseColumns([[0]], [[1j]], (1, 1))
        with pytest.raises(ValueError, match="rows must be 1-D integer indices below 1"):
            SparseColumns([[1]], [[1.0]], (1, 1))

    @pytest.mark.parametrize(
        "rows, values, match",
        [
            (_ROWS + 1, _VALUES, "rows must be 1-D integer indices below 3"),
            (_ROWS - 1, _VALUES, "rows must be 1-D integer indices below 3"),
            (_ROWS + 0.0, _VALUES, "rows must be 1-D integer indices below 3"),
            (_ROWS, _VALUES[:1], "rows and values must both be s x 3 arrays"),
            (_ROWS[:, :2], _VALUES[:, :2], "rows and values must both be s x 3 arrays"),
            (_ROWS[0], _VALUES[0], "rows and values must both be s x 3 arrays"),
            (_ROWS, _VALUES + 1j, "values must be real"),
            # column 1's slots -2 and 3 share row 1; column 0's second
            # slot shares row 0 too, but holds 0, which is allowed
            (np.array([[0, 1, 2], [0, 1, 1]]), _VALUES,
             "nonzero slots of a column must lie in distinct rows"),
        ],
        ids=["row_past_the_end", "negative_row", "float_rows", "ragged", "wrong_width",
             "one_dimensional", "complex_values", "nonzero_slots_sharing_a_row"],
    )
    def test_construction_refuses_bad_slots(self, rows, values, match):
        # each used to build, then take a wrong block, fail inside numpy or
        # (nonzero slots sharing a row) give col_sq, which the LASSO rates
        # coordinates with, a wrong column norm
        with pytest.raises(ValueError, match=match):
            SparseColumns(rows, values, (3, 3))

    @pytest.mark.parametrize(
        "shape",
        [(1.5, 3), (3, 3.0), (-1, 3), (0, 3), (3,), (3, 3, 1), (True, 3), [3, 3]],
        ids=["fractional", "float", "negative", "zero", "one_entry", "three_entries", "bool",
             "list"],
    )
    def test_construction_refuses_bad_shape(self, shape):
        # checked before the slots: each used to build, fail inside numpy,
        # or be refused as bad slots
        with pytest.raises(ValueError, match=r"shape must be a pair of positive integers"):
            SparseColumns(_ROWS, _VALUES, shape)


class TestColumnSampler:
    def test_gamma_one_selects_all(self):
        op = make_column_sampler(10, 1.0, seed=3)
        assert list(op.indices) == list(range(10))
        assert op.matrix.shape == (10, 10)

    def test_gamma_zero_is_empty_and_flagged(self):
        op = make_column_sampler(10, 0.0, seed=3)
        assert op.indices.size == 0

    def test_indices_increasing_and_binary_matrix(self):
        op = make_column_sampler(100, 0.3, seed=11)
        assert np.all(np.diff(op.indices) > 0)
        assert set(np.unique(op.matrix)) <= {0.0, 1.0}
        assert np.array_equal(op.matrix.sum(axis=0), np.ones(op.indices.size))

    def test_cardinality_tail_bound(self):
        # over 500 seeds at (n2=1000, gamma=0.2), |S| > 300 has probability
        # below exp(-3 * 0.2 * 1000 / 28) ~ 5e-10: never observed
        sizes = np.array(
            [make_column_sampler(1000, 0.2, seed=s).indices.size for s in range(500)]
        )
        assert np.all(sizes <= 300)
        assert np.all(sizes >= 100)

    def test_per_index_draws_are_prefix_stable(self):
        small = make_column_sampler(100, 0.25, seed=9).indices
        large = make_column_sampler(250, 0.25, seed=9).indices
        assert np.array_equal(small, large[large < 100])


class TestRowSubsampler:
    def test_full_selection_is_identity_set(self):
        op = make_row_subsampler(5, 5, seed=42)
        assert list(op.indices) == list(range(5))

    def test_distinct_in_range(self):
        op = make_row_subsampler(100, 10, seed=3)
        assert op.indices.size == 10
        assert np.unique(op.indices).size == 10
        assert op.indices.max() < 100
        assert np.array_equal(op.matrix.sum(axis=1), np.ones(10))

    def test_seeded_determinism(self):
        a = make_row_subsampler(50, 7, seed=5)
        b = make_row_subsampler(50, 7, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            make_row_subsampler(5, 6, seed=0)


class TestProbeVector:
    def test_single_entry_nonzero(self):
        assert make_probe_vector(1, seed=0).matrix[0, 0] != 0.0

    def test_linearity_on_zero(self):
        op = make_probe_vector(6, seed=2)
        assert op.matrix @ np.zeros(6) == pytest.approx(0.0)

    def test_distinct_seeds_differ(self):
        a = make_probe_vector(8, seed=1)
        b = make_probe_vector(8, seed=2)
        assert not np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("m, seed", [(1, 0), (6, 2), (30, 7), (300, 123456789)])
    def test_is_the_one_row_gaussian_sketch(self, m, seed):
        # bit for bit, and the same draw as the generator's own
        probe = make_probe_vector(m, seed).matrix
        assert np.array_equal(probe, make_gaussian_sketch(1, m, seed).matrix)
        assert np.array_equal(probe, generator(seed).standard_normal((1, m)))


def _mp_budget_row(r, k, delta):
    num = 5 * (mpmath.mpf(r) + 1) + mpmath.log(k) + mpmath.log(2 / mpmath.mpf(delta))
    return num / (mpmath.mpf(1) / 64 - mpmath.mpf(1) / 384)


def _mp_budget_col(k, n2, delta):
    num = (
        11 * mpmath.mpf(k)
        + 2 * k * mpmath.log(mpmath.mpf(n2) / k)
        + mpmath.log(2 / mpmath.mpf(delta))
    )
    return num / (mpmath.mpf(1) / 64 - mpmath.mpf(1) / 384)


class TestBudgets:
    def test_f_quarter_is_five_384ths(self):
        # the literal is f(1/4) bit for bit, so every budget figure is too
        assert F_QUARTER == f_jl(0.25) == 5.0 / 384.0
        assert f_jl(0.5) > 0 and f_jl(0.99) > 0

    def test_quarter_constant_arithmetic(self):
        # numerators 10 and 13 divided by f(1/4) reproduce the documented
        # reference counts 768 and 999
        assert math.ceil(10.0 / F_QUARTER) == 768
        assert math.ceil(13.0 / F_QUARTER) == 999

    def test_row_budget_reference_value(self):
        b = SampleBudget(n2=1000, n_L=990, r=5, k=10, delta=0.1)
        assert min_row_budget(b) == 2711

    def test_col_budget_reference_value(self):
        b = SampleBudget(n2=1000, n_L=990, r=5, k=10, delta=0.1)
        assert min_col_budget(b) == 15752

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.integers(1, 200),
        k=st.integers(1, 500),
        delta=st.floats(1e-4, 0.99),
    )
    def test_row_budget_matches_high_precision(self, r, k, delta):
        b = SampleBudget(n2=1000, n_L=500, r=r, k=k, delta=delta)
        exact = _mp_budget_row(r, k, delta)
        if abs(exact - mpmath.nint(exact)) < 1e-9:
            return  # boundary between two ceilings; either answer is fine
        assert min_row_budget(b) == int(mpmath.ceil(exact))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 400),
        n2=st.integers(400, 100000),
        delta=st.floats(1e-4, 0.99),
    )
    def test_col_budget_matches_high_precision(self, k, n2, delta):
        # n_L does not enter the column budget; it only has to be valid
        b = SampleBudget(n2=n2, n_L=max(1, n2 - k), r=1, k=k, delta=delta)
        exact = _mp_budget_col(k, n2, delta)
        if abs(exact - mpmath.nint(exact)) < 1e-9:
            return
        assert min_col_budget(b) == int(mpmath.ceil(exact))

    def test_row_budget_monotone(self):
        base = dict(n2=1000, n_L=900, delta=0.1)
        vals = [min_row_budget(SampleBudget(r=r, k=5, **base)) for r in (1, 2, 4, 8)]
        assert vals == sorted(vals) and len(set(vals)) == 4
        vals = [min_row_budget(SampleBudget(r=3, k=k, **base)) for k in (1, 10, 100)]
        assert vals == sorted(vals)

    def test_col_budget_monotone_in_k(self):
        base = dict(n2=100000, n_L=9000, r=1, delta=0.1)
        vals = [min_col_budget(SampleBudget(k=k, **base)) for k in (1, 5, 25, 125)]
        assert vals == sorted(vals) and len(set(vals)) == 4

    def test_gamma_floor_dominates_for_huge_sizes(self):
        b = SampleBudget(n2=10**6, n_L=10**6, r=1, k=10, mu_L=1.0, delta=0.1)
        assert min_gamma(b) == pytest.approx(0.05)

    def test_gamma_infeasible_case(self):
        b = SampleBudget(n2=10**4, n_L=10**4, r=100, k=10, mu_L=5.0, delta=0.1)
        g = min_gamma(b)
        assert g == pytest.approx(10 * 100 * 5 * math.log(5000) / 1e4, rel=1e-12)
        assert g > 1.0  # infeasible signal: caller must grow the problem

    def test_max_outliers_reference_values(self):
        assert max_outliers(SampleBudget(n2=4880, n_L=100, r=1, k=1)) == 1
        assert max_outliers(SampleBudget(n2=1000, n_L=100, r=1, k=1)) == 0

    @settings(max_examples=40, deadline=None)
    @given(r=st.integers(1, 50), mu=st.floats(1.0, 20.0), n2=st.integers(100, 10**6))
    def test_max_outliers_matches_formula_and_monotone(self, r, mu, n2):
        b = SampleBudget(n2=n2, n_L=50, r=r, k=1, mu_L=mu)
        expect = int(mpmath.floor(mpmath.mpf(n2) / (40 * (1 + 121 * r * mu))))
        assert max_outliers(b) == expect
        bigger = SampleBudget(n2=n2, n_L=50, r=r + 1, k=1, mu_L=mu)
        assert max_outliers(bigger) <= max_outliers(b)

    def test_budget_validation(self):
        for fields, field in [
            (dict(n2=0, n_L=1, k=0), "n2"),
            (dict(n2=10, n_L=5, k=0), "k"),
            (dict(n2=10, n_L=5, k=-1), "k"),
            (dict(n2=10, n_L=5, k=11), "k"),
            (dict(n2=10, n_L=0, k=1), "n_L"),
            (dict(n2=10, n_L=11, k=1), "n_L"),
            (dict(n2=10, n_L=5, k=1, mu_L=math.nan), "mu_L"),
            (dict(n2=10, n_L=5, k=1, mu_L=math.inf), "mu_L"),
        ]:
            with pytest.raises(ValueError, match="^%s " % field):
                SampleBudget(r=1, **fields)
        with pytest.raises(ValueError):
            SampleBudget(n2=1, n_L=1, r=0, k=1)
        with pytest.raises(ValueError):
            SampleBudget(n2=1, n_L=1, r=1, k=1, delta=1.5)
        with pytest.raises(ValueError):
            SampleBudget(n2=1, n_L=1, r=1, k=1, mu_L=0.5)
