import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sketchout import synth
from sketchout.synth import (
    add_noise,
    bernoulli_mask,
    column_incoherence,
    generate_instance,
    hypergeometric_tail_bound,
    oracle_success,
    phase_grid,
)


class TestGenerateInstance:
    def test_no_outliers(self):
        inst = generate_instance(20, 50, 2, 0, seed=0)
        assert not inst.C.any()
        assert inst.true_support.size == 0

    def test_decomposition_and_placement(self):
        inst = generate_instance(15, 40, 3, 6, seed=1)
        assert np.max(np.abs(inst.M - inst.L - inst.C)) < 1e-12
        assert not inst.L[:, -6:].any()
        assert not inst.C[:, :34].any()
        assert list(inst.true_support) == list(range(34, 40))

    def test_rank_exact_over_seeds(self):
        for seed in range(100):
            r = 1 + seed % 5
            inst = generate_instance(25, 60, r, 4, seed=seed)
            s = np.linalg.svd(inst.L, compute_uv=False)
            rank = np.sum(s > max(inst.L.shape) * np.finfo(float).eps * s[0])
            assert rank == r

    def test_equal_energy_blocks(self):
        # mean squared column norms of both blocks concentrate near n1 * r
        n1, r = 100, 5
        gap = []
        for seed in range(20):
            inst = generate_instance(n1, 1000, r, 10, seed=seed)
            low = np.sum(inst.L[:, :990] ** 2, axis=0).mean()
            out = np.sum(inst.C[:, 990:] ** 2, axis=0).mean()
            gap.append(abs(low - out) / (n1 * r))
        assert np.mean(gap) <= 0.1

    def test_normalization_gives_unit_columns(self):
        inst = generate_instance(30, 80, 2, 5, seed=3, normalize=True)
        norms = np.linalg.norm(inst.L + inst.C, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_determinism(self):
        a = generate_instance(12, 30, 2, 3, seed=9)
        b = generate_instance(12, 30, 2, 3, seed=9)
        assert np.array_equal(a.M, b.M)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            generate_instance(10, 20, 19, 2, seed=0)
        with pytest.raises(ValueError):
            generate_instance(10, 20, 0, 2, seed=0)
        with pytest.raises(ValueError):
            generate_instance(10, 20, 1, 20, seed=0)


class TestAddNoise:
    def test_zero_sigma_unchanged(self):
        inst = generate_instance(10, 30, 2, 2, seed=4)
        assert add_noise(inst, 0.0, seed=5) is inst

    def test_variance_level(self):
        inst = generate_instance(100, 1000, 2, 5, seed=6)
        noisy = add_noise(inst, 0.001, seed=7)
        sample_var = np.var(noisy.M - inst.L - inst.C)
        assert abs(sample_var - 1e-6) < 0.05 * 1e-6

    def test_factors_unchanged_and_reproducible(self):
        inst = generate_instance(20, 60, 2, 4, seed=8)
        a = add_noise(inst, 0.01, seed=9)
        b = add_noise(inst, 0.01, seed=9)
        assert np.array_equal(a.M, b.M)
        assert np.array_equal(a.L, inst.L) and np.array_equal(a.C, inst.C)

    def test_negative_sigma_rejected(self):
        inst = generate_instance(5, 12, 1, 1, seed=0)
        with pytest.raises(ValueError):
            add_noise(inst, -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan], ids=["inf", "nan"])
    def test_nonfinite_sigma_rejected(self, sigma):
        inst = generate_instance(5, 12, 1, 1, seed=0)
        with pytest.raises(ValueError, match="finite"):
            add_noise(inst, sigma, seed=0)


class TestBernoulliMask:
    def test_full_density(self):
        assert bernoulli_mask(5, 8, 1.0, seed=0).all()

    def test_density_concentrates(self):
        mask = bernoulli_mask(100, 1000, 0.3, seed=1)
        assert abs(mask.mean() - 0.3) < 0.01

    def test_reproducible(self):
        assert np.array_equal(bernoulli_mask(9, 9, 0.5, 2), bernoulli_mask(9, 9, 0.5, 2))

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_mask(4, 4, 0.0, seed=0)


class TestColumnIncoherence:
    def test_within_theoretical_range(self):
        inst = generate_instance(40, 200, 3, 10, seed=11)
        mu = column_incoherence(inst.L)
        assert 1.0 <= mu <= 190 / 3

    def test_canonical_alignment_is_maximal(self):
        L = np.zeros((6, 10))
        L[0, 0] = 2.0  # single nonzero column: row space on one coordinate
        assert column_incoherence(L) == pytest.approx(1.0)
        L[1, 1] = 1.0  # two canonical directions, two nonzero columns
        assert column_incoherence(L) == pytest.approx(1.0)
        L[1, 1] = 0.0
        L[1, 0] = 1.0
        L[:, 1] = 2 * L[:, 0]  # rank 1 spread over two columns, uneven mass
        assert column_incoherence(L) == pytest.approx(2 * (4.0 / 5.0))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            column_incoherence(np.zeros((3, 3)))


def _brute_force_success(scores, support):
    scores = np.asarray(scores, float)
    support = set(int(i) for i in support)
    if not support:
        return not scores.any()
    # the set above a threshold changes only at the score values, so trying
    # each of them, and 0, covers every nonnegative threshold (midpoints can
    # round onto a score: (0 + 5e-324) / 2 == 0)
    for tau in np.unique(np.concatenate([scores, [0.0]])):
        if set(np.nonzero(scores > tau)[0].tolist()) == support:
            return True
    return False


class TestOracleSuccess:
    def test_simple_separation(self):
        assert oracle_success([np.array([5.0, 4.0, 0.1])], [0, 1])

    def test_interleaved_failure(self):
        assert not oracle_success([np.array([5.0, 0.1, 4.0])], [0, 1])

    def test_any_path_point_suffices(self):
        bad = np.array([1.0, 2.0, 3.0])
        good = np.array([9.0, 8.0, 0.1])
        assert oracle_success([bad, good], [0, 1])

    def test_empty_support_conventions(self):
        assert not oracle_success([np.array([0.5, 0.1])], [])
        assert oracle_success([np.zeros(4)], [])

    def test_single_vector_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            oracle_success(np.array([3.0, 0.1]), [0])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            oracle_success([], [0])

    @settings(max_examples=200)
    @given(
        scores=arrays(np.float64, 7, elements=st.floats(0, 10)),
        support=st.sets(st.integers(0, 6), max_size=7),
    )
    @example(scores=np.array([5e-324, 1, 1, 1, 1, 1, 1]), support=set(range(7)))
    def test_agrees_with_threshold_scan(self, scores, support):
        got = oracle_success([scores], sorted(support))
        want = _brute_force_success(scores, support)
        assert got == want


class TestHypergeometricBound:
    def test_vacuous_at_zero_eps(self):
        assert hypergeometric_tail_bound(100, 10, 5, 0.0) == 1.0

    def test_reference_value(self):
        val = hypergeometric_tail_bound(1000, 100, 50, 1.0)
        assert val == pytest.approx(math.exp(-1.875), rel=1e-12)
        assert val == pytest.approx(0.15335, abs=1e-5)

    def test_monte_carlo_never_exceeds(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        draws = rng.hypergeometric(100, 900, 50, size=100_000)
        emp = np.mean(draws >= 2.0 * 50 * 0.1)
        assert emp <= hypergeometric_tail_bound(1000, 100, 50, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            hypergeometric_tail_bound(10, 11, 5, 1.0)
        with pytest.raises(ValueError):
            hypergeometric_tail_bound(10, 5, 11, 1.0)
        with pytest.raises(ValueError):
            hypergeometric_tail_bound(10, 5, 5, -0.5)

    def test_nan_eps_rejected(self):
        # eps < 0 is false for NaN, so the bound used to come back as NaN
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            hypergeometric_tail_bound(10, 5, 3, math.nan)


class TestPhaseGrid:
    def test_easy_cell_is_certain(self):
        res = phase_grid(
            mode="sacos", n1=20, n2=60, gamma=0.5, m=10, r_values=[1], k_values=[2],
            lambda_set=[0.43], trials=1, seed=5,
        )
        assert res.grid[(1, 2)] == 1.0

    def test_pathological_cell_fails(self):
        # rank above the sketch dimension: the subsampled solve cannot learn
        # the subspace, so no separation threshold exists
        res = phase_grid(
            mode="sacos", n1=20, n2=60, gamma=0.5, m=10, r_values=[12], k_values=[40],
            lambda_set=[0.3, 0.4, 0.5], trials=10, seed=6,
        )
        assert res.grid[(12, 40)] == 0.0

    def test_infeasible_cells_absent(self):
        res = phase_grid(
            mode="sacos", n1=20, n2=30, gamma=0.5, m=8, r_values=[2, 25], k_values=[8],
            lambda_set=[0.4], trials=1, seed=7,
        )
        assert (2, 8) in res.grid and (25, 8) not in res.grid

    def test_grid_without_feasible_cell_rejected(self):
        with pytest.raises(ValueError, match="no feasible"):
            phase_grid(
                mode="sacos", n1=20, n2=30, gamma=0.5, m=8, r_values=[25], k_values=[8, 30],
                lambda_set=[0.4], trials=1, seed=7,
            )

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 0), ("r_values", []), ("k_values", []), ("lambda_set", [])],
    )
    def test_empty_grid_rejected(self, field, value):
        kw = dict(mode="sacos", n1=16, n2=40, gamma=0.5, m=8, r_values=[1], k_values=[2],
                  lambda_set=[0.4], trials=1, seed=0)
        kw[field] = value
        with pytest.raises(ValueError, match="nonempty grid axes"):
            phase_grid(**kw)

    @pytest.mark.parametrize(
        "field, values", [("r_values", [1, 1]), ("k_values", [2, 2]), ("lambda_set", [0.4, 0.4])],
        ids=["r_values", "k_values", "lambda_set"],
    )
    def test_repeated_value_rejected(self, field, values, monkeypatch):
        # a repeated cell would run again, and a repeated weight would draw
        # fresh trials and inflate the maximum over weights
        kw = dict(mode="sacos", n1=20, n2=60, gamma=0.5, m=8, r_values=[1], k_values=[2],
                  lambda_set=[0.4], trials=1)
        kw[field] = values
        monkeypatch.setattr(synth, "detect", None)  # no trial may run
        with pytest.raises(ValueError, match="%s repeats a value" % field):
            phase_grid(**kw)

    def test_reproducible(self):
        kw = dict(mode="sacos", n1=16, n2=40, gamma=0.5, m=8, r_values=[1, 2], k_values=[2, 4],
                  lambda_set=[0.4, 0.5], trials=2, seed=8)
        a = phase_grid(**kw)
        b = phase_grid(**kw)
        assert a.grid == b.grid and a.cell_lambda_best == b.cell_lambda_best

    def test_lambda_pointwise_max(self):
        # a weight far outside the working range loses to a sane one
        res = phase_grid(
            mode="sacos", n1=20, n2=60, gamma=0.5, m=10, r_values=[2], k_values=[4],
            lambda_set=[1e-4, 0.4], trials=3, seed=9,
        )
        assert res.grid[(2, 4)] == 1.0
        assert res.cell_lambda_best[(2, 4)] == 0.4

    def test_missing_mode_needs_density(self):
        with pytest.raises(ValueError):
            phase_grid(
                mode="sacos_missing", n1=16, n2=40, gamma=0.5, m=8, r_values=[1], k_values=[2],
                lambda_set=[0.4], trials=1, seed=0,
            )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            phase_grid(
                mode="other", n1=16, n2=40, gamma=0.5, m=8, r_values=[1], k_values=[2],
                lambda_set=[0.4], trials=1, seed=0,
            )

    def test_acos_without_decoder_rejected_before_any_trial(self, monkeypatch):
        calls, detect = [], synth.detect

        def spy(*args):
            calls.append(args)
            return detect(*args)

        monkeypatch.setattr(synth, "detect", spy)
        with pytest.raises(ValueError, match="p >= 1"):
            phase_grid(
                mode="acos", n1=20, n2=60, m=5, r_values=[1], k_values=[2],
                lambda_set=[0.4], trials=2,
            )
        assert calls == []
