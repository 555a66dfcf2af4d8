import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sketchout.prox import group_shrink, lasso_path_solve, soft_threshold, svt

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def matrices(max_side=8):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda s: arrays(np.float64, s, elements=finite)
    )


class TestSoftThreshold:
    def test_closed_form_example(self):
        out = soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0)
        assert np.array_equal(out, [2.0, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        v = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -0.1)

    @settings(max_examples=100)
    @given(v=arrays(np.float64, 6, elements=finite), tau=st.floats(0, 10))
    def test_l1_shrinkage(self, v, tau):
        assert np.abs(soft_threshold(v, tau)).sum() <= np.abs(v).sum() + 1e-12

    @settings(max_examples=100)
    @given(
        v=arrays(np.float64, 5, elements=finite),
        w=arrays(np.float64, 5, elements=finite),
        tau=st.floats(0, 10),
    )
    def test_nonexpansive(self, v, w, tau):
        lhs = np.linalg.norm(soft_threshold(v, tau) - soft_threshold(w, tau))
        assert lhs <= np.linalg.norm(v - w) + 1e-10


class TestSvt:
    def test_diagonal_example(self):
        out = svt(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_zero_threshold_reconstructs(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        X = rng.standard_normal((5, 7))
        assert np.allclose(svt(X, 0.0), X, atol=1e-12)

    def test_large_threshold_annihilates(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        X = rng.standard_normal((4, 6))
        assert np.array_equal(svt(X, np.linalg.norm(X, 2) + 1e-9), np.zeros((4, 6)))

    def test_prox_optimality_certificate(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        for tau in (0.3, 1.0, 2.5):
            X = rng.standard_normal((6, 9))
            Z = svt(X, tau)
            nuc = np.linalg.svd(Z, compute_uv=False).sum()
            assert np.linalg.norm(X - Z, 2) <= tau + 1e-8
            assert np.vdot(X - Z, Z) == pytest.approx(tau * nuc, abs=1e-6 * (1 + nuc))

    @settings(max_examples=40, deadline=None)
    @given(X=matrices(), tau=st.floats(0, 5))
    def test_nonexpansive(self, X, tau):
        rng = np.random.Generator(np.random.Philox(key=4))
        Y = X + rng.standard_normal(X.shape)
        lhs = np.linalg.norm(svt(X, tau) - svt(Y, tau), "fro")
        assert lhs <= np.linalg.norm(X - Y, "fro") + 1e-8


class TestGroupShrink:
    def test_single_column_example(self):
        out = group_shrink(np.array([[3.0], [4.0]]), 2.0)
        assert np.allclose(out, [[1.8], [2.4]], atol=1e-12)

    def test_zero_threshold_is_identity(self):
        X = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(group_shrink(X, 0.0), X)

    def test_small_columns_clip_to_exact_zero(self):
        X = np.array([[0.5, 3.0], [0.0, 4.0]])
        out = group_shrink(X, 1.0)
        assert np.array_equal(out[:, 0], [0.0, 0.0])
        assert np.all(out[:, 1] != 0)

    def test_zero_columns_stay_zero(self):
        X = np.zeros((3, 2))
        assert np.array_equal(group_shrink(X, 1.0), X)

    def test_columnwise_prox_certificate(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        X = rng.standard_normal((5, 8)) * 2
        tau = 1.2
        Z = group_shrink(X, tau)
        for x, z in zip(X.T, Z.T):
            assert np.linalg.norm(x - z) <= tau + 1e-8
            nz = np.linalg.norm(z)
            assert np.vdot(x - z, z) == pytest.approx(tau * nz, abs=1e-6 * (1 + nz))

    @settings(max_examples=40, deadline=None)
    @given(X=matrices(), tau=st.floats(0, 5))
    def test_nonexpansive(self, X, tau):
        rng = np.random.Generator(np.random.Philox(key=6))
        Y = X + rng.standard_normal(X.shape)
        lhs = np.linalg.norm(group_shrink(X, tau) - group_shrink(Y, tau), "fro")
        assert lhs <= np.linalg.norm(X - Y, "fro") + 1e-8


def _coordinate_descent(D, y, mu, passes=20000, tol=1e-13):
    """Independent LASSO oracle: cyclic coordinate descent to convergence."""
    n = D.shape[1]
    gram_diag = np.sum(D * D, axis=0)
    c = np.zeros(n)
    r = y.copy()
    for _ in range(passes):
        biggest = 0.0
        for j in range(n):
            if gram_diag[j] == 0:
                continue
            old = c[j]
            rho = D[:, j] @ r + gram_diag[j] * old
            new = np.sign(rho) * max(abs(rho) - mu, 0.0) / gram_diag[j]
            if new != old:
                r += D[:, j] * (old - new)
                c[j] = new
                biggest = max(biggest, abs(new - old))
        if biggest < tol:
            break
    return c


def _objective(D, y, c, mu):
    return 0.5 * np.sum((y - D @ c) ** 2) + mu * np.abs(c).sum()


def _lasso(D, y, mu, max_iters=2000):
    """Single-weight solve: a regularization path of length one."""
    C, iters = lasso_path_solve(D, y, [mu], max_iters=max_iters)
    return C[:, 0], iters


class TestLasso:
    def test_identity_design_soft_thresholds(self):
        c, iters = _lasso(np.eye(2), np.array([3.0, 0.0]), 1.0)
        assert np.allclose(c, [2.0, 0.0], atol=1e-7)
        assert iters < 2000  # stopped on its tolerance, not the cap

    def test_above_null_threshold_gives_zero(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        D = rng.standard_normal((10, 20))
        y = rng.standard_normal(10)
        mu = np.max(np.abs(D.T @ y)) * 1.01
        c, _ = _lasso(D, y, mu)
        assert np.array_equal(c, np.zeros(20))

    def test_matches_coordinate_descent_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        D = rng.standard_normal((20, 50))
        truth = np.zeros(50)
        truth[[3, 17, 40]] = [1.0, -2.0, 0.5]
        y = D @ truth
        mu = 0.01 * np.max(np.abs(D.T @ y))
        c, _ = _lasso(D, y, mu)
        oracle = _coordinate_descent(D, y, mu)
        obj_o = _objective(D, y, oracle, mu)
        assert _objective(D, y, c, mu) <= obj_o + 1e-6 * (1 + abs(obj_o))

    def test_objective_never_exceeds_start(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        D = rng.standard_normal((15, 30))
        y = rng.standard_normal(15)
        mu = 0.1 * np.max(np.abs(D.T @ y))
        for max_iters in (1, 5, 2000):
            c, _ = _lasso(D, y, mu, max_iters)
            assert _objective(D, y, c, mu) <= 0.5 * y @ y + 1e-12

    def test_path_agrees_with_single_solves(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        D = rng.standard_normal((12, 25))
        y = rng.standard_normal(12)
        base = np.max(np.abs(D.T @ y))
        mus = np.geomspace(1e-3, 0.5, 5) * base
        path, _ = lasso_path_solve(D, y, mus)
        for j, mu in enumerate(mus):
            c, _ = _lasso(D, y, mu)
            single = _objective(D, y, c, mu)
            batched = _objective(D, y, path[:, j], mu)
            # the batched run iterates until every column converges, so it
            # may land slightly below the single solve, never meaningfully above
            assert batched <= single + 1e-9
            assert abs(batched - single) <= 1e-6 * (1 + abs(single))

    def test_validation(self):
        with pytest.raises(ValueError):
            lasso_path_solve(np.eye(2), np.ones(3), [1.0])
        with pytest.raises(ValueError):
            lasso_path_solve(np.eye(2), np.ones(2), [0.0])
        with pytest.raises(ValueError):
            lasso_path_solve(np.zeros((2, 2)), np.ones(2), [1.0])
        with pytest.raises(ValueError):
            lasso_path_solve(np.eye(2), np.ones(2), [0.5, -1.0])
