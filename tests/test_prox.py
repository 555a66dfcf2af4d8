import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sketchout import prox
from sketchout.prox import TOL_OBJECTIVE, _group_shrink, _shrink, _svt, lasso_path_solve

from conftest import gaussian_product, with_spectrum

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def matrices(max_side=8):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda s: arrays(np.float64, s, elements=finite)
    )


class TestSoftThreshold:
    def test_closed_form_example(self):
        out = _shrink(np.array([3.0, -0.5, 0.0]), 1.0)
        assert np.array_equal(out, [2.0, 0.0, 0.0])
        out = _shrink(np.array([3.0, -3.0, 0.5]), np.array([1.0, 2.0, 1.0]))
        assert np.array_equal(out, [2.0, -1.0, 0.0])

    def test_zero_threshold_is_identity(self):
        v = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(_shrink(v, 0.0), v)

    @settings(max_examples=100)
    @given(v=arrays(np.float64, 6, elements=finite), tau=st.floats(0, 10))
    def test_l1_shrinkage(self, v, tau):
        assert np.abs(_shrink(v, tau)).sum() <= np.abs(v).sum() + 1e-12

    @settings(max_examples=100)
    @given(
        v=arrays(np.float64, 5, elements=finite),
        w=arrays(np.float64, 5, elements=finite),
        tau=st.floats(0, 10),
    )
    def test_nonexpansive(self, v, w, tau):
        lhs = np.linalg.norm(_shrink(v, tau) - _shrink(w, tau))
        assert lhs <= np.linalg.norm(v - w) + 1e-10


def _svd_svt(X, tau):
    """Reference singular value thresholding from a full SVD."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


_SVT_CASES = [((8, 20), 8), ((20, 8), 8), ((12, 12), 12), ((8, 20), 4), ((20, 8), 4)]
_SVT_IDS = ["wide", "tall", "square", "wide_rank_deficient", "tall_rank_deficient"]


class TestSvt:
    def test_diagonal_example(self):
        out = _svt(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_zero_threshold_reconstructs(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        X = rng.standard_normal((5, 7))
        assert np.allclose(_svt(X, 0.0), X, atol=1e-12)

    def test_large_threshold_annihilates(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        X = rng.standard_normal((4, 6))
        assert np.array_equal(_svt(X, np.linalg.norm(X, 2) + 1e-9), np.zeros((4, 6)))

    def test_prox_optimality_certificate(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        for tau in (0.3, 1.0, 2.5):
            X = rng.standard_normal((6, 9))
            Z = _svt(X, tau)
            nuc = np.linalg.svd(Z, compute_uv=False).sum()
            assert np.linalg.norm(X - Z, 2) <= tau + 1e-8
            assert np.vdot(X - Z, Z) == pytest.approx(tau * nuc, abs=1e-6 * (1 + nuc))

    @settings(max_examples=40, deadline=None)
    @given(X=matrices(), tau=st.floats(0, 5))
    def test_nonexpansive(self, X, tau):
        rng = np.random.Generator(np.random.Philox(key=4))
        Y = X + rng.standard_normal(X.shape)
        lhs = np.linalg.norm(_svt(X, tau) - _svt(Y, tau), "fro")
        assert lhs <= np.linalg.norm(X - Y, "fro") + 1e-8


    # Cases against a test-local SVD-based reference; agreement is to within
    # 1e-10 * sigma_1 (svt works from Gram eigenvalues, not an SVD).

    @pytest.mark.parametrize("shape, rank", _SVT_CASES, ids=_SVT_IDS)
    def test_matches_svd_reference(self, shape, rank):
        X = gaussian_product(shape, rank, seed=20 + rank)
        s = np.linalg.svd(X, compute_uv=False)
        taus = [0.0, 0.5 * s[0], 2.0 * s[0]]
        for i in (1, rank // 2, rank - 2):  # interior singular values
            taus += [s[i] * (1 - 1e-9), s[i], s[i] * (1 + 1e-9)]
        for tau in taus:
            assert np.max(np.abs(_svt(X, tau) - _svd_svt(X, tau))) <= 1e-10 * s[0]

    @pytest.mark.parametrize("shape", [(6, 15), (15, 6)], ids=["wide", "tall"])
    def test_repeated_singular_values(self, shape):
        values = np.array([3.0, 3.0, 3.0, 1.0, 1.0, 0.5])
        X = with_spectrum(shape, values, seed=30)
        for tau in (0.0, 0.2, 0.5, 0.7, 1.0, 2.0, 3.0 * (1 - 1e-9)):
            assert np.max(np.abs(_svt(X, tau) - _svd_svt(X, tau))) <= 1e-10 * 3.0

    @pytest.mark.parametrize("shape, rank", _SVT_CASES, ids=_SVT_IDS)
    def test_threshold_above_top_value_gives_exact_zero(self, shape, rank):
        X = gaussian_product(shape, rank, seed=40 + rank)
        top = np.linalg.norm(X, 2)
        for tau in (top * (1 + 1e-12), 2.0 * top, 1e6 * top):
            assert np.array_equal(_svt(X, tau), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_nonfinite_entry_rejected(self, bad):
        X = np.ones((4, 6))
        X[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            _svt(X, 0.5)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    @pytest.mark.parametrize("shape", [(8, 20), (20, 8)], ids=["wide", "tall"])
    def test_positively_homogeneous_over_float_range(self, shape, scale):
        X = gaussian_product(shape, 5, seed=50)
        tau = 0.5 * np.linalg.norm(X, 2)
        ref = scale * _svt(X, tau)
        out = _svt(scale * X, scale * tau)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestGroupShrink:
    def test_single_column_example(self):
        out = _group_shrink(np.array([[3.0], [4.0]]), 2.0)
        assert np.allclose(out, [[1.8], [2.4]], atol=1e-12)

    def test_zero_threshold_is_identity(self):
        X = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(_group_shrink(X, 0.0), X)

    def test_small_columns_clip_to_exact_zero(self):
        X = np.array([[0.5, 3.0], [0.0, 4.0]])
        out = _group_shrink(X, 1.0)
        assert np.array_equal(out[:, 0], [0.0, 0.0])
        assert np.all(out[:, 1] != 0)

    def test_zero_columns_stay_zero(self):
        X = np.zeros((3, 2))
        assert np.array_equal(_group_shrink(X, 1.0), X)

    def test_columnwise_prox_certificate(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        X = rng.standard_normal((5, 8)) * 2
        tau = 1.2
        Z = _group_shrink(X, tau)
        for x, z in zip(X.T, Z.T):
            assert np.linalg.norm(x - z) <= tau + 1e-8
            nz = np.linalg.norm(z)
            assert np.vdot(x - z, z) == pytest.approx(tau * nz, abs=1e-6 * (1 + nz))

    @settings(max_examples=40, deadline=None)
    @given(X=matrices(), tau=st.floats(0, 5))
    def test_nonexpansive(self, X, tau):
        rng = np.random.Generator(np.random.Philox(key=6))
        Y = X + rng.standard_normal(X.shape)
        lhs = np.linalg.norm(_group_shrink(X, tau) - _group_shrink(Y, tau), "fro")
        assert lhs <= np.linalg.norm(X - Y, "fro") + 1e-8


@pytest.mark.parametrize("op", [_svt, _group_shrink], ids=["svt", "group_shrink"])
def test_input_left_unchanged(op):
    X = gaussian_product((6, 9), 2, seed=51)
    X[:, 4] = 0.0
    before = X.copy()
    op(X, 0.5)
    assert np.array_equal(X, before)


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


def _sparse_recovery_problem():
    rng = np.random.Generator(np.random.Philox(key=8))
    D = rng.standard_normal((20, 50))
    truth = np.zeros(50)
    truth[[3, 17, 40]] = [1.0, -2.0, 0.5]
    y = D @ truth
    return D, y, 0.01 * np.max(np.abs(D.T @ y))


def _wide_sparse_problem():
    """40 x 400 with a 15-sparse truth: from an empty working set the first
    point alone needs several doubling rounds to reach its support."""
    rng = np.random.Generator(np.random.Philox(key=13))
    D = rng.standard_normal((40, 400))
    truth = np.zeros(400)
    support = rng.choice(400, 15, replace=False)
    truth[support] = rng.choice([-1.0, 1.0], 15) * rng.uniform(0.5, 2.0, 15)
    y = D @ truth
    return D, y, np.geomspace(0.04, 0.5, 5) * np.max(np.abs(D.T @ y))


_ROTATION = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


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

    @pytest.mark.parametrize(
        "D, y, mu",
        [
            pytest.param(*_sparse_recovery_problem(), id="random"),
            # the all-ones vector spans the null space of D
            pytest.param(np.array([[1.0, -1.0]]), np.array([1.0]), 0.1, id="ones_in_null_space"),
            # the top right singular vector (sigma 3) is orthogonal to all-ones
            pytest.param(
                np.diag([1.0, 3.0]) @ _ROTATION.T, np.array([0.5, 2.0]), 0.1,
                id="top_vector_orthogonal_to_ones",
            ),
        ],
    )
    def test_matches_coordinate_descent_oracle(self, D, y, mu):
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
            obj_o = _objective(D, y, _coordinate_descent(D, y, mu), mu)
            assert _objective(D, y, path[:, j], mu) <= obj_o + 1e-6 * (1 + abs(obj_o))

    def test_weight_order_does_not_change_columns(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        D = rng.standard_normal((15, 40))
        y = rng.standard_normal(15)
        mus = np.geomspace(1e-3, 1.0, 6) * np.max(np.abs(D.T @ y))
        ref, ref_iters = lasso_path_solve(D, y, mus)
        for order in (np.arange(6)[::-1], np.array([3, 0, 5, 1, 4, 2])):
            path, iters = lasso_path_solve(D, y, mus[order])
            assert np.array_equal(path, ref[:, order])
            assert iters == ref_iters

    def test_count_is_largest_per_point_count(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        D = rng.standard_normal((20, 50))
        y = rng.standard_normal(20)
        mus = np.geomspace(1e-3, 0.5, 5) * np.max(np.abs(D.T @ y))
        path, iters = lasso_path_solve(D, y, mus)
        assert 1 < iters < 2000
        # no point needs more than the returned count: capping there changes nothing
        capped, capped_iters = lasso_path_solve(D, y, mus, max_iters=iters)
        assert capped_iters == iters and np.array_equal(capped, path)
        # some point needs all of it: one fewer reaches the cap
        _, short_iters = lasso_path_solve(D, y, mus, max_iters=iters - 1)
        assert short_iters == iters - 1
        _, one = lasso_path_solve(D, y, mus, max_iters=1)
        assert one == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            lasso_path_solve(np.eye(2), np.ones(3), [1.0])
        with pytest.raises(ValueError):
            lasso_path_solve(np.eye(2), np.ones(2), [0.0])
        with pytest.raises(ValueError):
            lasso_path_solve(np.zeros((2, 2)), np.ones(2), [1.0])
        with pytest.raises(ValueError):
            lasso_path_solve(np.eye(2), np.ones(2), [0.5, -1.0])

    @pytest.mark.parametrize("arg", [0, 1, 2], ids=["design", "observation", "weights"])
    def test_complex_input_rejected(self, arg):
        # a float cast used to warn and then solve the real part alone
        args = [np.eye(2), np.ones(2), [1.0]]
        args[arg] = np.asarray(args[arg]) * (1 + 1j)
        name = ["design", "observation", "regularization weights"][arg]
        with pytest.raises(ValueError, match=name + " must be real"):
            lasso_path_solve(*args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            lasso_path_solve(np.eye(2), np.ones(2), [0.5, bad])

    def test_step_computed_once_per_working_set(self, monkeypatch):
        # the step is the largest Gram eigenvalue of the working block D[:, W]:
        # one eigvalsh each time W changes between FISTA runs, none for rounds
        # and path points that keep W
        D, y, mus = _wide_sparse_problem()
        ref, ref_iters = lasso_path_solve(D, y, mus)
        blocks, eig_calls = [], []
        fista, eigvalsh = prox._fista, np.linalg.eigvalsh

        def recording(DW, *args):
            blocks.append(DW)
            return fista(DW, *args)

        def counting(a, *args, **kwargs):
            eig_calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(prox, "_fista", recording)
        monkeypatch.setattr(prox.np.linalg, "eigvalsh", counting)
        path, iters = lasso_path_solve(D, y, mus)
        changes = sum(
            i == 0 or not np.array_equal(b, blocks[i - 1]) for i, b in enumerate(blocks)
        )
        assert changes < len(blocks)  # some runs keep the previous working set
        assert len(eig_calls) == changes
        assert np.array_equal(path, ref) and iters == ref_iters

    def test_wide_sparse_path_matches_oracle(self):
        D, y, mus = _wide_sparse_problem()
        path, _ = lasso_path_solve(D, y, mus)
        assert np.count_nonzero(path[:, -1]) >= 8  # the largest weight's support
        for j, mu in enumerate(mus):
            obj_o = _objective(D, y, _coordinate_descent(D, y, mu), mu)
            assert _objective(D, y, path[:, j], mu) <= obj_o + 1e-6 * (1 + abs(obj_o))

    @pytest.mark.parametrize(
        "problem", [_wide_sparse_problem, _sparse_recovery_problem], ids=["wide", "random"]
    )
    def test_every_coordinate_certified(self, problem):
        # no single-coordinate step lowers any returned point's objective by
        # more than the tolerance; for a zero coefficient that step's decrease
        # is (|g_j| - mu)_+^2 / (2 ||D_j||^2)
        D, y, mus = problem()
        mus = np.atleast_1d(mus)
        path, _ = lasso_path_solve(D, y, mus)
        col_sq = np.sum(D * D, axis=0)
        for j, mu in enumerate(mus):
            c = path[:, j]
            obj = _objective(D, y, c, mu)
            g = D.T @ (y - D @ c)
            zero = c == 0
            gain = np.maximum(np.abs(g[zero]) - mu, 0.0) ** 2 / (2.0 * col_sq[zero])
            assert np.all(gain <= TOL_OBJECTIVE * max(1.0, obj))
            for i in np.flatnonzero(~zero):
                u = c[i] + g[i] / col_sq[i]
                moved = c.copy()
                moved[i] = np.sign(u) * max(abs(u) - mu / col_sq[i], 0.0)
                assert obj - _objective(D, y, moved, mu) <= TOL_OBJECTIVE * max(1.0, obj)

    def test_zero_column_stays_zero(self):
        D, y, mu = _sparse_recovery_problem()
        D[:, 17] = 0.0
        c, _ = _lasso(D, y, mu)
        assert c[17] == 0.0
        obj_o = _objective(D, y, _coordinate_descent(D, y, mu), mu)
        assert _objective(D, y, c, mu) <= obj_o + 1e-6 * (1 + abs(obj_o))

    def test_inserted_zero_column_changes_nothing(self):
        # a zero column rates exactly 0, so it never joins the working set,
        # and every other column goes through the same rounds bit for bit
        D, y, mus = _wide_sparse_problem()
        ref, ref_iters = lasso_path_solve(D, y, mus)
        path, iters = lasso_path_solve(np.insert(D, 123, 0.0, axis=1), y, mus)
        assert np.all(path[123] == 0.0)
        assert np.array_equal(np.delete(path, 123, axis=0), ref)
        assert iters == ref_iters

    def test_nonfinite_design_rejected(self):
        D, y, mu = _sparse_recovery_problem()
        D[4, 9] = np.nan
        with pytest.raises(ValueError, match="design must be finite"):
            _lasso(D, y, mu)
