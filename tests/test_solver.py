import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchout import AcosConfig, pipeline, solver
from sketchout.rng import derive_seed
from sketchout.sketching import make_gaussian_sketch
from sketchout.solver import (
    MAX_ITERS,
    TOL_RESIDUAL,
    SolverDivergenceError,
    outlier_pursuit,
    rmc_solve,
    subspace_basis,
)
from sketchout.synth import bernoulli_mask, generate_instance, phase_grid

from conftest import (
    corpus_c06_input,
    fixed_rho_reference,
    gaussian_product,
    half_observed_input,
    leading_sin_theta,
    nonzero_columns,
    principal_angle,
    separation_input,
    with_spectrum,
)
from check_corpus import entry
from test_acceptance import SEED


class TestDefaultLambda:
    def test_reference_values(self):
        # k = ceil(n2 / 10) outliers: n2 = 10, 90, 490 give k = 1, 9, 49
        cfg = AcosConfig(gamma=0.2, m=10)
        assert pipeline._resolve_lambda(cfg, 10) == pytest.approx(3.0 / 7.0)
        assert pipeline._resolve_lambda(cfg, 90) == pytest.approx(1.0 / 7.0)
        assert pipeline._resolve_lambda(cfg, 490) == pytest.approx(3.0 / 49.0)


class TestOutlierPursuit:
    def test_zero_input(self):
        sol = outlier_pursuit(np.zeros((4, 6)), 0.3)
        assert np.array_equal(sol.low_rank, np.zeros((4, 6)))
        assert np.array_equal(sol.column_sparse, np.zeros((4, 6)))
        assert sol.converged and sol.residual == 0.0
        assert sol.gap == 0.0

    def test_rank_one_clean(self):
        Y = gaussian_product((30, 200), 1, seed=7)
        sol = outlier_pursuit(Y, 3.0 / 7.0)
        assert sol.converged
        assert np.max(np.linalg.norm(sol.column_sparse, axis=0)) < 1e-6
        assert principal_angle(sol.low_rank, Y) < 1e-6

    def test_planted_instance_recovered(self):
        # inside the empirical recovery region for this size; the guarantee
        # value 3/(7 sqrt(5)) sits below the working range here
        inst = generate_instance(30, 200, 2, 5, seed=11)
        sol = outlier_pursuit(inst.M, 0.3)
        assert sol.converged
        declared = nonzero_columns(sol.column_sparse)
        assert declared == set(inst.true_support)
        assert principal_angle(sol.low_rank, inst.L) < 1e-3
        assert -1e-12 <= sol.gap < 1e-6

    def test_feasibility_on_converged_runs(self):
        for seed in range(4):
            inst = generate_instance(20, 80, 2, 4, seed=seed)
            sol = outlier_pursuit(inst.M, 0.35)
            assert sol.converged
            assert sol.residual <= TOL_RESIDUAL
            assert -1e-12 <= sol.gap < 1e-6
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

    def test_gap_computed_only_when_first_read(self, monkeypatch):
        real, seen = solver._duality_gap, []

        def counted(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(solver, "_duality_gap", counted)
        inst = generate_instance(20, 80, 2, 4, seed=0)
        mask = bernoulli_mask(20, 80, 0.7, seed=1)
        sols = [outlier_pursuit(inst.M, 0.35), rmc_solve(inst.M, mask, 0.35)]
        assert seen == []
        gaps = [sol.gap for sol in sols + sols]
        assert seen == gaps[:2] == gaps[2:]

    def test_results_are_frozen(self):
        sol = outlier_pursuit(gaussian_product((30, 200), 1, seed=7), 0.4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.converged = False
        basis = subspace_basis(sol.low_rank)
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.dim = 0


class TestDivergenceGuard:
    def test_shrinking_penalty_raises(self, monkeypatch):
        # a penalty that shrinks on every stall lets the residual climb; the
        # input is the 10-row sketch that sacos separates in
        # tests/test_cli.py::test_solver_divergence_is_solver_failure
        monkeypatch.setattr(solver, "RHO_GROWTH", 0.5)
        M = generate_instance(20, 60, 2, 4, seed=1).M
        Y = make_gaussian_sketch(10, 20, derive_seed(0, 2)).matrix @ M
        with pytest.raises(SolverDivergenceError, match="residual increased for 10 consecutive"):
            outlier_pursuit(Y, 0.4)


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

    def test_rank_one_seventy_percent_observed(self):
        Y = gaussian_product((40, 120), 1, seed=3)
        rng = np.random.Generator(np.random.Philox(key=9))
        mask = rng.random(Y.shape) < 0.7
        sol = rmc_solve(np.where(mask, Y, np.nan), mask, 3.0 / 7.0)
        assert sol.converged
        assert principal_angle(sol.low_rank, Y) < 1e-3

    def test_single_observed_entry_degenerate(self):
        mask = np.zeros((6, 8), bool)
        mask[2, 3] = True
        sol = rmc_solve(np.where(mask, 5.0, 0.0), mask, 0.3)
        assert sol.degenerate
        assert not sol.converged
        assert np.isfinite(sol.residual)
        assert np.isfinite(sol.gap) and sol.gap >= -1e-12

    def test_all_false_mask_rejected(self):
        with pytest.raises(ValueError):
            rmc_solve(np.ones((3, 3)), np.zeros((3, 3), bool), 0.3)

    def test_nonpositive_lambda_rejected(self):
        for lam in (0.0, -0.3):
            with pytest.raises(ValueError, match="lambda"):
                rmc_solve(np.ones((3, 3)), np.ones((3, 3), bool), lam)

    @pytest.mark.parametrize("lam", [np.inf, np.nan], ids=["inf", "nan"])
    def test_nonfinite_lambda_rejected(self, lam):
        # an infinite weight used to "converge" with a NaN duality gap
        with pytest.raises(ValueError, match="lambda"):
            outlier_pursuit(generate_instance(20, 60, 2, 4, seed=1).M, lam)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmc_solve(np.ones((3, 3)), np.ones((3, 4), bool), 0.3)

    @pytest.mark.parametrize("bad", [0.5, np.nan, -1.0], ids=["half", "nan", "negative"])
    def test_mask_entry_other_than_0_or_1_rejected(self, bad):
        # such an entry used to read as observed
        mask = np.ones((20, 60))
        mask[4, 7] = bad
        with pytest.raises(ValueError, match="mask entries must be exactly 0 or 1"):
            rmc_solve(generate_instance(20, 60, 2, 3, seed=5).M, mask, 0.4)

    def test_complex_data_rejected(self):
        # a float cast used to warn and then solve the real part alone
        M = generate_instance(20, 60, 2, 3, seed=5).M
        with pytest.raises(ValueError, match="data must be real"):
            rmc_solve(M + 1j * M, np.ones(M.shape, bool), 0.4)

    @pytest.mark.parametrize("junk", [1e6, np.nan, np.inf], ids=["1e6", "nan", "inf"])
    def test_unobserved_entries_ignored(self, junk):
        # bit for bit: no pass of the solve reads an unobserved entry
        Y = gaussian_product((20, 50), 1, seed=4)
        rng = np.random.Generator(np.random.Philox(key=10))
        mask = rng.random(Y.shape) < 0.8
        a = rmc_solve(np.where(mask, Y, junk), mask, 0.4)
        b = rmc_solve(np.where(mask, Y, 0.0), mask, 0.4)
        assert np.array_equal(a.low_rank, b.low_rank)
        assert np.array_equal(a.column_sparse, b.column_sparse)
        assert a.iterations == b.iterations and a.residual == b.residual


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


class TestAcceleration:
    """Anderson acceleration of the separation loop, pinned by iteration
    counts."""

    def test_masked_corpus_solves_are_short(self):
        # the plain loop averages 211.5 iterations on these sixteen, mixing
        # the stacked (Z, C) over 5 steps 59.8, and Z alone over 8 steps 53.8
        iterations = [rmc_solve(*corpus_c06_input(i)).iterations for i in range(16)]
        assert np.mean(iterations) <= 57

    def test_singular_gram_falls_back_to_the_plain_step(self, monkeypatch):
        # the first mixing solve raises: that step stays plain, the memory
        # restarts, and the solve ends at the same subspace
        inst = generate_instance(30, 150, 2, 4, seed=21)
        mask = bernoulli_mask(30, 150, 0.7, seed=3)
        ref = rmc_solve(inst.M, mask, 0.4)
        calls, solve = [], np.linalg.solve

        def fail_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", fail_once)
        sol = rmc_solve(inst.M, mask, 0.4)
        assert len(calls) > 1 and sol.converged
        assert principal_angle(sol.low_rank, ref.low_rank) < 1e-6

    def test_outlier_free_solves_stay_short(self):
        # acos on the outlier-free corpus cell (5, 0), past its five inputs:
        # these settle at once (3 or 4 plain iterations); extrapolating
        # before the memory holds a useful step must not cost much more
        for i in range(10):
            sol = rmc_solve(*separation_input("acos", *entry("acos", 5, 0, i)))
            assert sol.converged and sol.iterations <= 10


class TestMaskedSolveAccuracy:
    """Masked solves of the missing-data pipeline pass the residual test
    before the cap, with the learned planted-rank subspace close to the
    optimum's.  Past the rank-5 planted part, the solves can leave
    directions of 1e-7 to 1e-4 sigma_1 that the optimum lacks, so the
    leading five directions are compared."""

    def test_half_observed_solve_converges_before_the_cap(self):
        sol = rmc_solve(*half_observed_input(10))
        assert sol.converged and sol.iterations < MAX_ITERS
        assert np.isfinite(sol.gap) and sol.gap >= -1e-12

    @pytest.mark.parametrize(
        "subproblem, index",
        [(corpus_c06_input, i) for i in range(16)] + [(half_observed_input, 10)],
        ids=["c06-input-%d" % i for i in range(16)] + ["half-observed-trial-10"],
    )
    def test_learned_subspace_near_optimum(self, subproblem, index):
        Y, mask, lam = subproblem(index)
        sol = rmc_solve(Y, mask, lam)
        assert leading_sin_theta(sol.low_rank, fixed_rho_reference(Y, mask, lam), 5) <= 1e-5


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


class TestRankRule:
    """subspace_basis keeps the numerical rank, and cuts at the largest
    singular-value gap only when the input has full numerical rank."""

    def test_rank_deficient_spread_spectrum_keeps_numerical_rank(self):
        # a ratio of 1000 between the two values, but the gap to numerical
        # zero decides: nothing is cut
        assert subspace_basis(with_spectrum((6, 7), [10.0, 0.01], seed=11)).dim == 2

    def test_full_rank_cut_at_largest_gap(self):
        X = with_spectrum((6, 9), [10.0, 8.0, 5.0, 1e-3, 9e-4, 5e-4], seed=12)
        basis = subspace_basis(X)
        assert basis.dim == 3
        assert basis.energy_kept == pytest.approx(23.0 / (23.0 + 2.4e-3), rel=1e-10)

    def test_full_rank_without_gap_keeps_all(self):
        X = with_spectrum((6, 9), [10.0, 8.0, 5.0, 1.0, 0.9, 0.5], seed=12)
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
