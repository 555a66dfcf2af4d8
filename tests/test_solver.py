import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchout import solver
from sketchout.solver import (
    TOL_RESIDUAL,
    default_lambda,
    outlier_pursuit,
    rmc_solve,
    subspace_basis,
)
from sketchout.synth import bernoulli_mask, generate_instance, phase_grid

from test_acceptance import SEED


def rank1(seed, shape=(30, 200)):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))


class TestDefaultLambda:
    def test_reference_values(self):
        assert default_lambda(1) == pytest.approx(3.0 / 7.0)
        assert default_lambda(9) == pytest.approx(1.0 / 7.0)
        assert default_lambda(49) == pytest.approx(3.0 / 49.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_lambda(0)


class TestOutlierPursuit:
    def test_zero_input(self):
        sol = outlier_pursuit(np.zeros((4, 6)), 0.3)
        assert np.array_equal(sol.low_rank, np.zeros((4, 6)))
        assert np.array_equal(sol.column_sparse, np.zeros((4, 6)))
        assert sol.converged and sol.residual == 0.0

    def test_rank_one_clean(self, helpers):
        Y = rank1(7)
        sol = outlier_pursuit(Y, default_lambda(1))
        assert sol.converged
        assert np.max(np.linalg.norm(sol.column_sparse, axis=0)) < 1e-6
        assert helpers.principal_angle(sol.low_rank, Y) < 1e-6

    def test_planted_instance_recovered(self, helpers):
        # inside the empirical recovery region for this size; the guarantee
        # value 3/(7 sqrt(5)) sits below the working range here
        inst = generate_instance(30, 200, 2, 5, seed=11)
        sol = outlier_pursuit(inst.M, 0.3)
        assert sol.converged
        declared = helpers.nonzero_columns(sol.column_sparse)
        assert declared == set(inst.true_support)
        assert helpers.principal_angle(sol.low_rank, inst.L) < 1e-3

    def test_feasibility_on_converged_runs(self):
        for seed in range(4):
            inst = generate_instance(20, 80, 2, 4, seed=seed)
            sol = outlier_pursuit(inst.M, 0.35)
            assert sol.converged
            assert sol.residual <= TOL_RESIDUAL
            assert sol.low_rank.shape == inst.M.shape
            assert sol.column_sparse.shape == inst.M.shape

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_result_follows_input_scale(self, scale):
        # squared norms of inputs this small or large underflow or overflow
        inst = generate_instance(30, 200, 2, 5, seed=11)
        ref = outlier_pursuit(inst.M, 0.3)
        sol = outlier_pursuit(scale * inst.M, 0.3)
        assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
        for got, want in ((sol.low_rank, ref.low_rank), (sol.column_sparse, ref.column_sparse)):
            assert np.max(np.abs(got - scale * want)) <= 1e-9 * scale * np.max(np.abs(want))

    def test_validation(self):
        with pytest.raises(ValueError):
            outlier_pursuit(np.full((2, 2), np.nan), 0.3)
        with pytest.raises(ValueError):
            outlier_pursuit(np.ones((2, 2)), 0.0)

    def test_results_are_frozen(self):
        sol = outlier_pursuit(rank1(7), 0.4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.converged = False
        basis = subspace_basis(sol.low_rank)
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.dim = 0


class TestRmcSolve:
    def test_full_mask_matches_unmasked(self):
        inst = generate_instance(20, 60, 2, 3, seed=5)
        full = outlier_pursuit(inst.M, 0.4)
        masked = rmc_solve(inst.M, np.ones(inst.M.shape, bool), 0.4)
        # a full mask leaves nothing free, so the iterations coincide exactly
        assert np.array_equal(full.low_rank, masked.low_rank)
        assert np.array_equal(full.column_sparse, masked.column_sparse)
        assert (full.residual, full.iterations, full.converged) == (
            masked.residual, masked.iterations, masked.converged
        )
        assert not masked.degenerate

    def test_rank_one_seventy_percent_observed(self, helpers):
        Y = rank1(3, (40, 120))
        rng = np.random.Generator(np.random.Philox(key=9))
        mask = rng.random(Y.shape) < 0.7
        sol = rmc_solve(np.where(mask, Y, np.nan), mask, default_lambda(1))
        assert sol.converged
        assert helpers.principal_angle(sol.low_rank, Y) < 1e-3

    def test_single_observed_entry_degenerate(self):
        mask = np.zeros((6, 8), bool)
        mask[2, 3] = True
        sol = rmc_solve(np.where(mask, 5.0, 0.0), mask, 0.3)
        assert sol.degenerate
        assert not sol.converged
        assert np.isfinite(sol.residual)

    def test_all_false_mask_rejected(self):
        with pytest.raises(ValueError):
            rmc_solve(np.ones((3, 3)), np.zeros((3, 3), bool), 0.3)

    def test_nonpositive_lambda_rejected(self):
        for lam in (0.0, -0.3):
            with pytest.raises(ValueError, match="lambda"):
                rmc_solve(np.ones((3, 3)), np.ones((3, 3), bool), lam)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmc_solve(np.ones((3, 3)), np.ones((3, 4), bool), 0.3)

    def test_unobserved_entries_ignored(self):
        Y = rank1(4, (20, 50))
        rng = np.random.Generator(np.random.Philox(key=10))
        mask = rng.random(Y.shape) < 0.8
        junk = np.where(mask, Y, 1e6)
        a = rmc_solve(junk, mask, 0.4)
        b = rmc_solve(np.where(mask, Y, 0.0), mask, 0.4)
        assert np.allclose(a.low_rank, b.low_rank)


class TestConvergedFlag:
    """``converged`` is exactly "the residual test passed and the solve is not
    degenerate", whichever iteration the cap stops the loop at."""

    @pytest.mark.parametrize(
        "shape, k, seed, p_omega",
        [
            # noise-free with no outliers: the residual reaches rounding level
            # at iteration 2, before the iterates settle
            ((30, 150), 0, 0, None),
            ((30, 150), 4, 21, None),
            ((30, 150), 4, 21, 0.7),
        ],
    )
    def test_converged_means_residual_test_passed(self, shape, k, seed, p_omega, monkeypatch):
        inst = generate_instance(*shape, 2, k, seed=seed)
        mask = np.ones(shape, bool) if p_omega is None else bernoulli_mask(*shape, p_omega, seed=3)
        full = rmc_solve(inst.M, mask, 0.4)
        assert full.converged
        for cap in range(1, full.iterations + 1):
            monkeypatch.setattr(solver, "MAX_ITERS", cap)
            sol = rmc_solve(inst.M, mask, 0.4)
            assert sol.iterations == cap
            assert sol.converged is (bool(sol.residual <= TOL_RESIDUAL) and not sol.degenerate)
        assert sol.converged


class TestSubspaceBasis:
    def test_numerical_rank_on_diagonal(self):
        X = np.zeros((5, 4))
        X[0, 0], X[1, 1] = 3.0, 1.0
        basis = subspace_basis(X)
        assert basis.dim == 2

    def test_zero_matrix_empty_with_warning(self):
        with pytest.warns(RuntimeWarning):
            basis = subspace_basis(np.zeros((4, 4)))
        assert basis.dim == 0

    def test_orthonormality(self):
        inst = generate_instance(25, 80, 3, 4, seed=2)
        sol = outlier_pursuit(inst.M, 0.35)
        basis = subspace_basis(sol.low_rank)
        eye = basis.basis.T @ basis.basis
        assert np.max(np.abs(eye - np.eye(basis.dim))) < 1e-10


def with_spectrum(sigma, shape, seed):
    """A shape[0] x shape[1] matrix with singular values sigma and random
    singular vectors."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    Q, _ = np.linalg.qr(rng.standard_normal((shape[0], len(sigma))))
    P, _ = np.linalg.qr(rng.standard_normal((shape[1], len(sigma))))
    return Q @ np.diag(sigma) @ P.T


class TestRankRule:
    """subspace_basis keeps the numerical rank, and cuts at the largest
    singular-value gap only when the input has full numerical rank."""

    def test_rank_deficient_spread_spectrum_keeps_numerical_rank(self):
        # a ratio of 1000 between the two values, but the gap to numerical
        # zero decides: nothing is cut
        assert subspace_basis(with_spectrum([10.0, 0.01], (6, 7), seed=11)).dim == 2

    def test_full_rank_cut_at_largest_gap(self):
        X = with_spectrum([10.0, 8.0, 5.0, 1e-3, 9e-4, 5e-4], (6, 9), seed=12)
        basis = subspace_basis(X)
        assert basis.dim == 3
        assert basis.energy_kept == pytest.approx(23.0 / (23.0 + 2.4e-3), rel=1e-10)

    def test_full_rank_without_gap_keeps_all(self):
        X = with_spectrum([10.0, 8.0, 5.0, 1.0, 0.9, 0.5], (6, 9), seed=12)
        assert subspace_basis(X).dim == 6

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 12),
        n=st.integers(2, 12),
        data=st.data(),
    )
    def test_low_rank_product_keeps_count_above_cutoff(self, m, n, data):
        r = data.draw(st.integers(1, min(m, n) - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        scales = data.draw(st.lists(st.floats(-6.0, 6.0), min_size=r, max_size=r))
        rng = np.random.Generator(np.random.Philox(key=seed))
        X = (rng.standard_normal((m, r)) * 10.0 ** np.array(scales)) @ rng.standard_normal((r, n))
        s = np.linalg.svd(X, full_matrices=False)[1]
        assert subspace_basis(X).dim == int(np.sum(s > max(m, n) * np.finfo(float).eps * s[0]))

    @pytest.mark.parametrize(
        "mode, p, k, p_omega",
        [("acos", 300, 10, None), ("sacos", 0, 10, None), ("sacos_missing", 0, 50, 0.7)],
    )
    def test_noisy_cell_at_a_single_weight(self, mode, p, k, p_omega):
        # noise in the inlier columns makes the learned L full rank; without
        # the gap cut the basis fills the sketch and every score is rounding
        res = phase_grid(
            mode=mode, n1=100, n2=1000, gamma=0.2, m=30, p=p, r_values=[5], k_values=[k],
            lambda_set=[0.4], trials=10, seed=SEED + 20, noise_sigma=1e-4, p_omega=p_omega,
            normalize=True,
        )
        assert res.grid[(5, k)] >= 0.8


class TestResidualOperator:
    """SubspaceBasis.project_out, the residual map v -> v - B (B^T v)."""

    def test_canonical_projection(self):
        # rank-1 matrix whose columns span e1
        basis = subspace_basis(np.array([[1.0, 2.0], [0.0, 0.0]]))
        project = basis.project_out
        assert np.allclose(project(np.array([1.0, 2.0])), [0.0, 2.0], atol=1e-12)

    def test_kernel_and_idempotence(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        X = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 10))
        basis = subspace_basis(X)
        project = basis.project_out
        inside = X[:, :3] @ rng.standard_normal(3)
        assert np.linalg.norm(project(inside)) < 1e-10 * np.linalg.norm(inside)
        v = rng.standard_normal(8)
        assert np.allclose(project(project(v)), project(v), atol=1e-10)

    def test_matrix_application_is_columnwise(self):
        rng = np.random.Generator(np.random.Philox(key=14))
        X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9))
        basis = subspace_basis(X)
        project = basis.project_out
        V = rng.standard_normal((6, 5))
        cols = np.column_stack([project(v) for v in V.T])
        assert np.allclose(project(V), cols, atol=1e-12)

    def test_empty_basis_returns_a_copy(self):
        with pytest.warns(RuntimeWarning):
            basis = subspace_basis(np.zeros((4, 3)))
        assert basis.dim == 0
        X = np.random.Generator(np.random.Philox(key=15)).standard_normal((4, 5))
        out = basis.project_out(X)
        assert np.array_equal(out, X) and out is not X
