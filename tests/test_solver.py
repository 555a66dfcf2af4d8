import numpy as np
import pytest

from sketchout.solver import (
    TOL_RESIDUAL,
    default_lambda,
    outlier_pursuit,
    rmc_solve,
    subspace_basis,
)
from sketchout.synth import generate_instance


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


class TestSubspaceBasis:
    def test_numerical_rank_on_diagonal(self):
        X = np.zeros((5, 4))
        X[0, 0], X[1, 1] = 3.0, 1.0
        basis = subspace_basis(X, energy=1.0)
        assert basis.dim == 2

    def test_energy_rule_keeps_two(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        P, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        X = Q @ np.diag([10.0, 1.0]) @ P.T
        assert subspace_basis(X, energy=0.95).dim == 2

    def test_energy_rule_keeps_one(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        P, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        X = Q @ np.diag([10.0, 0.1]) @ P.T
        basis = subspace_basis(X, energy=0.95)
        assert basis.dim == 1
        assert basis.energy_kept == pytest.approx(10.0 / 10.1, rel=1e-10)

    def test_zero_matrix_empty_with_warning(self):
        with pytest.warns(RuntimeWarning):
            basis = subspace_basis(np.zeros((4, 4)), energy=1.0)
        assert basis.dim == 0

    def test_orthonormality(self):
        inst = generate_instance(25, 80, 3, 4, seed=2)
        sol = outlier_pursuit(inst.M, 0.35)
        basis = subspace_basis(sol.low_rank, energy=1.0)
        eye = basis.basis.T @ basis.basis
        assert np.max(np.abs(eye - np.eye(basis.dim))) < 1e-10

    def test_invalid_energy(self):
        with pytest.raises(ValueError):
            subspace_basis(np.eye(2), energy=0.0)
        with pytest.raises(ValueError):
            subspace_basis(np.eye(2), energy=1.5)


class TestResidualOperator:
    """SubspaceBasis.project_out, the residual map v -> v - B (B^T v)."""

    def test_canonical_projection(self):
        # rank-1 matrix whose columns span e1
        basis = subspace_basis(np.array([[1.0, 2.0], [0.0, 0.0]]), 1.0)
        project = basis.project_out
        assert np.allclose(project(np.array([1.0, 2.0])), [0.0, 2.0], atol=1e-12)

    def test_kernel_and_idempotence(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        X = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 10))
        basis = subspace_basis(X, 1.0)
        project = basis.project_out
        inside = X[:, :3] @ rng.standard_normal(3)
        assert np.linalg.norm(project(inside)) < 1e-10 * np.linalg.norm(inside)
        v = rng.standard_normal(8)
        assert np.allclose(project(project(v)), project(v), atol=1e-10)

    def test_matrix_application_is_columnwise(self):
        rng = np.random.Generator(np.random.Philox(key=14))
        X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9))
        basis = subspace_basis(X, 1.0)
        project = basis.project_out
        V = rng.standard_normal((6, 5))
        cols = np.column_stack([project(v) for v in V.T])
        assert np.allclose(project(V), cols, atol=1e-12)

    def test_empty_basis_returns_a_copy(self):
        with pytest.warns(RuntimeWarning):
            basis = subspace_basis(np.zeros((4, 3)), 1.0)
        assert basis.dim == 0
        X = np.random.Generator(np.random.Philox(key=15)).standard_normal((4, 5))
        out = basis.project_out(X)
        assert np.array_equal(out, X) and out is not X
