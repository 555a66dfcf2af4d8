import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sketchout import pipeline, prox, solver
from sketchout.pipeline import (
    MODES,
    AcosConfig,
    acos,
    detect,
    extract_support,
    measurement_count,
    sacos,
    sacos_missing,
)
from sketchout.rng import derive_seed
from sketchout.sketching import make_column_sampler, make_gaussian_sketch, make_row_subsampler
from sketchout.synth import bernoulli_mask, generate_instance, oracle_success

from check_corpus import entry
from conftest import held
from declaration_study import planted


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AcosConfig(gamma=0.0, m=10)
        with pytest.raises(ValueError):
            AcosConfig(gamma=0.2, m=0)
        with pytest.raises(ValueError):
            AcosConfig(gamma=0.2, m=10, lam=-1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match="separation weights"):
                AcosConfig(gamma=0.2, m=10, lam=lam)

    @pytest.mark.parametrize("bad", [2.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("field", ["m", "p", "seed"])
    def test_integer_fields_rejected_when_not_integers(self, field, bad):
        # both used to pass here and fail later inside numpy with a TypeError
        with pytest.raises(ValueError, match="^%s must be an integer" % field):
            AcosConfig(**dict(dict(gamma=0.2, m=10, p=5, seed=1), **{field: bad}))

    @pytest.mark.parametrize("bad", ["0.5", True], ids=["text", "bool"])
    @pytest.mark.parametrize("field", ["gamma", "lam"])
    def test_real_fields_rejected_when_not_numbers(self, field, bad):
        # text used to raise TypeError from a comparison, and True passed as 1
        with pytest.raises(ValueError, match="^%s must be a number" % field):
            AcosConfig(**dict(dict(gamma=0.2, m=10, lam=0.4), **{field: bad}))

    def test_acos_needs_p(self):
        inst = generate_instance(10, 40, 1, 2, seed=0)
        with pytest.raises(ValueError):
            acos(inst.M, AcosConfig(gamma=0.5, m=5, p=0, lam=0.4))


class TestExtractSupport:
    def test_four_order_gap(self):
        assert list(extract_support(np.array([5.0, 4.0, 0.001, 0.002]))) == [0, 1]

    def test_all_zero_scores(self):
        assert extract_support(np.zeros(5)).size == 0

    def test_all_equal_scores(self):
        assert extract_support(np.full(6, 2.5)).size == 0

    def test_weak_gap_declares_nothing(self):
        assert extract_support(np.array([5.0, 4.0, 1.0, 0.9])).size == 0

    def test_positive_above_exact_zero_declares(self):
        assert list(extract_support(np.array([0.0, 3.0, 0.0, 2.8]))) == [1, 3]

    def test_gap_beyond_float_range(self):
        # the top ratio overflows to inf, which is a clean separation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            declared = extract_support(np.array([1e300, 5e-324, 0.0]))
        assert list(declared) == [0]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            extract_support(np.array([1.0, np.nan]))

    @settings(max_examples=150)
    @given(scores=arrays(np.float64, 8, elements=st.floats(0, 100)))
    def test_declared_strictly_dominate(self, scores):
        declared = extract_support(scores)
        assert declared.dtype.kind == "i" and np.all(np.diff(declared) > 0)
        if declared.size:
            rest = np.delete(scores, declared)
            assert rest.size == 0 or scores[declared].min() > rest.max()


class TestMeasurementCount:
    def test_sacos_rate_ignores_p(self):
        cfg = AcosConfig(gamma=0.2, m=30, p=9999)
        count, rate = measurement_count(cfg, 123, "sacos", 100, 1000)
        assert count == 30000 and rate == pytest.approx(0.30)

    def test_monotone_in_budgets(self):
        base = measurement_count(AcosConfig(gamma=0.2, m=10, p=50), 100, "acos", 50, 500)[0]
        assert measurement_count(AcosConfig(gamma=0.2, m=20, p=50), 100, "acos", 50, 500)[0] > base
        assert measurement_count(AcosConfig(gamma=0.2, m=10, p=99), 100, "acos", 50, 500)[0] > base
        assert measurement_count(AcosConfig(gamma=0.2, m=10, p=50), 150, "acos", 50, 500)[0] > base

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            measurement_count(AcosConfig(gamma=0.2, m=10, p=1), 5, "other", 10, 10)
        with pytest.raises(ValueError, match="depends on the mask"):
            measurement_count(AcosConfig(gamma=0.2, m=10, p=1), 5, "sacos_missing", 10, 10)

    def test_acos_without_a_decoding_step_refused(self):
        # check_mode's rule, which acos() itself applies
        with pytest.raises(ValueError, match="needs p >= 1"):
            measurement_count(AcosConfig(gamma=0.2, m=10), 100, "acos", 50, 500)


class TestAcos:
    def test_no_outliers_declares_nothing(self):
        inst = generate_instance(30, 200, 2, 0, seed=11)
        est, _ = acos(inst.M, AcosConfig(gamma=0.5, m=10, p=60, lam=0.4, seed=1))
        assert est.declared.size == 0

    def test_oracle_success_at_reference_config(self):
        wins = 0
        for t in range(20):
            inst = generate_instance(20, 50, 2, 3, seed=300 + t)
            est, _ = acos(
                inst.M, AcosConfig(gamma=0.5, m=10, p=25, lam=0.4, seed=900 + t)
            )
            wins += oracle_success(est.score_path, inst.true_support)
        assert wins >= 18

    def test_declared_set_with_roomier_decode(self):
        # the 10x multiplicative-gap declaration needs a little more
        # compression room than bare threshold separation
        wins = 0
        for t in range(20):
            inst = generate_instance(20, 50, 2, 3, seed=300 + t)
            est, _ = acos(
                inst.M, AcosConfig(gamma=0.5, m=10, p=40, lam=0.4, seed=900 + t)
            )
            wins += set(est.declared) == set(inst.true_support)
        assert wins >= 18

    def test_measurement_audit_matches_closed_form(self):
        inst = generate_instance(30, 150, 2, 4, seed=21)
        mask = bernoulli_mask(30, 150, 0.7, seed=3)
        cfg = AcosConfig(gamma=0.4, m=12, p=50, lam=0.4, seed=77)
        est, count = acos(inst.M, cfg)
        sampler = make_column_sampler(150, cfg.gamma, derive_seed(cfg.seed, 1))
        assert count == sampler.indices.size * cfg.m + cfg.p

        est, count = sacos(inst.M, cfg)
        assert count == measurement_count(cfg, 0, "sacos", 30, 150)[0]

        # the missing-data path reads only the observed entries of its rows
        est, fraction = sacos_missing(inst.M, mask, cfg)
        rows = make_row_subsampler(30, cfg.m, derive_seed(cfg.seed, 2)).indices
        assert fraction == mask[rows].sum() / (30 * 150)

    def test_zero_matrix_gives_decoder_no_input(self):
        # a zero probe row leaves the decoder nothing to fit: every path
        # point scores zero and nothing is declared
        cfg = AcosConfig(gamma=0.5, m=5, p=20, lam=0.4)
        with pytest.warns(RuntimeWarning, match="zero matrix has an empty column space"):
            est, count = acos(np.zeros((20, 60)), cfg)
        assert est.declared.size == 0
        assert est.score_path.shape == (pipeline.PATH_POINTS, 60)
        assert not est.score_path.any()
        sampled = make_column_sampler(60, cfg.gamma, derive_seed(cfg.seed, 1)).indices
        assert count == sampled.size * cfg.m + cfg.p == 160

    def test_leakage_guard_overrides_a_declaration(self):
        # on this corpus input the best path point has a gap that declares
        # over 300 columns, but its largest score is within the leak the
        # learned subspace lets through, so acos declares nothing
        inst, _, cfg = entry("acos", 40, 100, 6)
        est, _ = acos(inst.M, cfg)
        assert est.declared.size == 0
        assert extract_support(est.scores).size >= 300

    def test_refit_declares_where_the_gap_rule_does_not(self, monkeypatch):
        # on this study input the support of a large path weight refits the
        # compressed row exactly and holds just the outliers, while the
        # point with the best gap declares false positives besides them
        inst, cfg = planted(10, 30)(2)
        est, _ = acos(inst.M, cfg)
        assert np.array_equal(est.declared, inst.true_support)
        monkeypatch.setattr(pipeline, "_refit", lambda *args: None)
        gap, _ = acos(inst.M, cfg)
        assert set(gap.declared) > set(inst.true_support)
        assert np.array_equal(gap.score_path, est.score_path)

    def test_refit_passes_over_a_support_with_equal_columns(self):
        # columns 0 and 1 of the design are equal, so the support {0, 1}
        # has a singular Gram matrix; the next point, {0}, fits exactly
        D = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0, 2.0, 1.0]])
        path = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
        i, declared = pipeline._refit(held(D), 3.0 * D[:, 0], path)
        assert i == 1 and declared.tolist() == [0]

    def test_score_path_shape_and_mu(self):
        inst = generate_instance(20, 80, 1, 2, seed=4)
        cfg = AcosConfig(gamma=0.5, m=8, p=40, lam=0.43, seed=9)
        est, _ = acos(inst.M, cfg)
        assert est.score_path.shape == (pipeline.PATH_POINTS, 80)
        assert est.mu_used is not None

    def test_decoder_iteration_count_on_white_instance(self, monkeypatch):
        # continuation converges each path point in a few dozen iterations;
        # running all points from zero until the slowest converges took ~1500
        counts = []
        solve = pipeline.lasso_path_solve

        def counting(*args, **kwargs):
            coeffs, iters = solve(*args, **kwargs)
            counts.append(iters)
            return coeffs, iters

        monkeypatch.setattr(pipeline, "lasso_path_solve", counting)
        inst = generate_instance(100, 1000, 5, 10, 7)
        acos(inst.M, AcosConfig(gamma=0.2, m=30, p=300, lam=0.4, seed=3))
        assert len(counts) == 1 and counts[0] <= 200

    @pytest.mark.xfail(
        strict=True,
        reason="the LASSO stop and working-set gain test share an absolute floor "
        "max(1, |obj|): with a tiny probe observation no column's gain passes it, "
        "every coefficient stays zero and acos declares no column",
    )
    def test_acos_declared_set_invariant_to_input_scale(self):
        inst = generate_instance(100, 1000, 5, 10, 7)
        cfg = AcosConfig(gamma=0.2, m=30, p=300, lam=0.4, seed=3)
        ref = list(acos(inst.M, cfg)[0].declared)
        for scale in (1e-6, 1e2):
            assert list(acos(inst.M * scale, cfg)[0].declared) == ref


class TestSacos:
    def test_no_outliers_all_scores_tiny(self):
        inst = generate_instance(30, 200, 2, 0, seed=11)
        cfg = AcosConfig(gamma=0.5, m=10, lam=0.4, seed=1)
        est, _ = sacos(inst.M, cfg)
        sketch = make_gaussian_sketch(cfg.m, 30, derive_seed(cfg.seed, 2))
        assert est.scores.max() < 1e-6 * np.linalg.norm(sketch.matrix @ inst.M, "fro")
        assert est.declared.size == 0

    def test_planted_set_recovered(self):
        wins = 0
        for t in range(20):
            inst = generate_instance(40, 300, 3, 30, seed=500 + t)
            est, _ = sacos(inst.M, AcosConfig(gamma=0.3, m=15, lam=0.4, seed=60 + t))
            wins += set(est.declared) == set(inst.true_support)
        assert wins >= 18

    def test_annihilation_margin(self):
        inst = generate_instance(40, 300, 3, 10, seed=8)
        est, _ = sacos(inst.M, AcosConfig(gamma=0.3, m=20, lam=0.4, seed=13))
        outliers = est.scores[inst.true_support]
        inliers = np.delete(est.scores, inst.true_support)
        assert inliers.max() <= 1e-6 * outliers.max()

    @pytest.mark.xfail(
        strict=True,
        reason="extract_support rates the boundary between positive scores and exact "
        "zeros as an infinite gap, so one all-zero column declares every other column; "
        "acos declarations depend on that rule, so its repair belongs with the "
        "declaration rule's",
    )
    def test_zero_column_declares_nothing_without_outliers(self):
        M = generate_instance(40, 200, 2, 0, seed=3).M.copy()
        M[:, 17] = 0.0
        cfg = AcosConfig(gamma=0.4, m=30, lam=0.4, seed=1)
        assert sacos(M, cfg)[0].declared.size == 0
        assert sacos_missing(M, np.ones(M.shape, bool), cfg)[0].declared.size == 0


class TestSacosMissing:
    def test_full_observation_reduces_to_sacos(self):
        inst = generate_instance(40, 120, 3, 6, seed=9)
        cfg = AcosConfig(gamma=0.5, m=40, lam=0.4, seed=5)
        est_s, _ = sacos(inst.M, cfg)
        est_m, fraction = sacos_missing(inst.M, np.ones(inst.M.shape, bool), cfg)
        assert list(est_s.declared) == list(est_m.declared)
        assert fraction == 1.0

    def test_unobserved_column_flagged(self):
        inst = generate_instance(30, 100, 2, 5, seed=14)
        mask = np.ones(inst.M.shape, bool)
        mask[:, 17] = False
        cfg = AcosConfig(gamma=0.5, m=20, lam=0.4, seed=6)
        est, _ = sacos_missing(inst.M, mask, cfg)
        assert est.column_flags["unobserved"][17]
        assert est.scores[17] == 0.0

    def test_unscored_column_takes_no_part_in_declaration(self):
        # a placeholder zero below 199 rounding-noise scores is no clean gap
        inst = generate_instance(40, 200, 2, 0, seed=3)
        mask = bernoulli_mask(40, 200, 0.9, seed=4)
        mask[:, 17] = False
        cfg = AcosConfig(gamma=0.4, m=30, lam=0.4, seed=1)
        est, _ = sacos_missing(inst.M, mask, cfg)
        assert est.column_flags["unobserved"][17] and est.scores[17] == 0.0
        assert est.declared.size == 0
        planted = generate_instance(40, 200, 2, 5, seed=3)
        est, _ = sacos_missing(planted.M, mask, cfg)
        assert est.declared.tolist() == planted.true_support.tolist()

    def test_nearly_unobserved_column_rank_deficient(self):
        inst = generate_instance(30, 100, 2, 5, seed=15)
        mask = np.ones(inst.M.shape, bool)
        mask[:, 23] = False
        mask[0, 23] = True  # a single observed row cannot beat a 2-dim basis
        cfg = AcosConfig(gamma=0.5, m=30, lam=0.4, seed=7)
        est, _ = sacos_missing(inst.M, mask, cfg)
        assert est.column_flags["rank_deficient"][23]
        assert est.scores[23] == 0.0

    def test_planted_recovery_under_bernoulli_mask(self):
        from sketchout.synth import bernoulli_mask

        wins = 0
        for t in range(10):
            inst = generate_instance(60, 250, 3, 12, seed=700 + t)
            mask = bernoulli_mask(60, 250, 0.7, seed=800 + t)
            cfg = AcosConfig(gamma=0.3, m=25, lam=0.4, seed=90 + t)
            est, fraction = sacos_missing(inst.M, mask, cfg)
            assert 0.2 < fraction < 0.35  # ~ (m / n1) * p_omega
            wins += set(est.declared) == set(inst.true_support)
        assert wins >= 9

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            sacos_missing(np.ones((4, 5)), np.ones((4, 4), bool), AcosConfig(gamma=0.5, m=2))

    @pytest.mark.parametrize("bad", [0.5, np.nan, -1.0, 2.0], ids=["half", "nan", "negative", "two"])
    def test_mask_entry_other_than_0_or_1_rejected(self, bad):
        # such an entry used to read as observed: with every hidden entry at
        # 0.5 the pipeline read whole rows and declared none of the outliers
        inst = generate_instance(40, 200, 2, 5, seed=1)
        mask = bernoulli_mask(40, 200, 0.7, seed=2).astype(float)
        mask[mask == 0] = bad
        with pytest.raises(ValueError, match="mask entries must be exactly 0 or 1"):
            detect("sacos_missing", inst.M, AcosConfig(gamma=0.4, m=30, lam=0.4, seed=1), mask)

    def test_unobserved_sample_is_a_sampling_failure(self):
        # the mask observes a whole row, but none of the sampled ones: the
        # separation used to refuse this as bad input
        inst = generate_instance(40, 200, 2, 5, seed=1)
        picked = make_row_subsampler(40, 10, derive_seed(1, 2)).indices
        mask = np.zeros((40, 200), bool)
        mask[np.setdiff1d(np.arange(40), picked)[0]] = True
        with pytest.raises(pipeline.PipelineError, match="observes no entry of the sampled rows"):
            detect("sacos_missing", inst.M, AcosConfig(gamma=0.4, m=10, lam=0.4, seed=1), mask)

    def test_zero_one_mask_matches_boolean_mask(self):
        inst = generate_instance(40, 200, 2, 5, seed=1)
        mask = bernoulli_mask(40, 200, 0.7, seed=2)
        cfg = AcosConfig(gamma=0.4, m=30, lam=0.4, seed=1)
        est, rate = sacos_missing(inst.M, mask, cfg)
        for numeric in (mask.astype(float), mask.astype(np.int8)):
            got, got_rate = sacos_missing(inst.M, numeric, cfg)
            assert np.array_equal(got.scores, est.scores) and got_rate == rate
            assert np.array_equal(got.declared, est.declared)

    def test_batched_scores_match_per_column_loop(self, monkeypatch):
        inst = generate_instance(30, 150, 3, 6, seed=41)
        cfg = AcosConfig(gamma=0.4, m=20, lam=0.4, seed=43)
        rows = make_row_subsampler(30, cfg.m, derive_seed(cfg.seed, 2)).indices
        mask = bernoulli_mask(30, 150, 0.7, seed=42)
        mask[:, 3] = False  # no observations
        mask[:, 5] = False
        mask[rows[:2], 5] = True  # two observations, fewer than the basis needs
        bases = []
        learn = pipeline.subspace_basis

        def recording(*args):
            bases.append(learn(*args))
            return bases[-1]

        monkeypatch.setattr(pipeline, "subspace_basis", recording)
        est, _ = sacos_missing(inst.M, mask, cfg)
        (basis,) = bases
        mask_r = mask[rows]
        counts = mask_r.sum(axis=0)
        assert basis.dim >= 2 and counts[3] == 0 and counts[5] == 2
        assert np.all(np.delete(counts, [3, 5]) > basis.dim)
        scores, flags = _per_column_scores(basis, np.where(mask_r, inst.M[rows], 0.0), mask_r)
        assert np.max(np.abs(est.scores - scores)) <= 1e-12 * np.max(scores)
        for name in ("unobserved", "rank_deficient"):
            assert np.array_equal(est.column_flags[name], flags[name])
        assert flags["unobserved"][3] and flags["rank_deficient"][5]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_scores_match_per_column_least_squares(self, dim, monkeypatch):
        # a random basis in place of the learned one, so every scored
        # column has a residual of the order of its data
        inst = generate_instance(40, 200, 3, 10, seed=51)
        cfg = AcosConfig(gamma=0.4, m=20, lam=0.4, seed=52)
        rows = make_row_subsampler(40, cfg.m, derive_seed(cfg.seed, 2)).indices
        rng = np.random.Generator(np.random.Philox(key=53 + dim))
        basis = solver.SubspaceBasis(np.linalg.qr(rng.standard_normal((cfg.m, dim)))[0], dim, 1.0)
        mask = bernoulli_mask(40, 200, 0.6, seed=54)
        for j in range(10):  # exactly dim + 1 observations
            mask[:, j] = False
            mask[rng.choice(rows, dim + 1, replace=False), j] = True
        monkeypatch.setattr(pipeline, "subspace_basis", lambda X: basis)
        est, _ = sacos_missing(inst.M, mask, cfg)
        mask_r = mask[rows]
        scored = np.flatnonzero(mask_r.sum(axis=0) > dim)
        assert np.all(mask_r[:, :10].sum(axis=0) == dim + 1) and scored.size > 150
        residuals = _per_column_scores(basis, inst.M[rows], mask_r)[0][scored]
        assert np.all(np.abs(est.scores[scored] - residuals) <= 1e-10 * residuals)

    def test_zero_matrix_scores_zero(self):
        # the learned basis is empty (d = 0), and every column is scored
        cfg = AcosConfig(gamma=0.5, m=40, lam=0.4, seed=1)
        with pytest.warns(RuntimeWarning, match="zero matrix has an empty column space"):
            est, _ = detect("sacos_missing", np.zeros((40, 200)), cfg, bernoulli_mask(40, 200, 0.7, seed=2))
        assert np.all(est.scores == 0.0) and est.declared.size == 0

    def test_singular_restricted_basis_scores_zero(self):
        # the learned basis is row 0's direction, so a scored column that
        # does not observe row 0 fits its data by a zero restricted basis
        M = np.zeros((40, 200))
        M[0] = 1.0
        mask = bernoulli_mask(40, 200, 0.7, seed=2)
        assert not mask[0].all()
        est, _ = detect("sacos_missing", M, AcosConfig(gamma=0.5, m=40, lam=0.4, seed=1), mask)
        assert np.max(est.scores) <= 1e-12 and est.declared.size == 0


def _per_column_scores(basis, data_r, mask_r):
    """Reference for the batched scoring of sacos_missing: one reduced QR
    of the observed basis rows per column, and the two column flags.  Only
    the observed entries of ``data_r`` are read."""
    n2 = data_r.shape[1]
    scores = np.zeros(n2)
    flags = {"unobserved": np.zeros(n2, bool), "rank_deficient": np.zeros(n2, bool)}
    for j in range(n2):
        obs = np.nonzero(mask_r[:, j])[0]
        if obs.size == 0:
            flags["unobserved"][j] = True
        elif obs.size <= basis.dim:
            flags["rank_deficient"][j] = True
        else:
            Q, _ = np.linalg.qr(basis.basis[obs])
            v = data_r[obs, j]
            scores[j] = np.linalg.norm(v - Q @ (Q.T @ v))
    return scores, flags


class TestPermutationEquivariance:
    def test_sacos_declared_follows_column_permutation(self):
        inst = generate_instance(40, 200, 2, 8, seed=31)
        cfg = AcosConfig(gamma=0.4, m=20, lam=0.4, seed=17)
        base, _ = sacos(inst.M, cfg)
        rng = np.random.Generator(np.random.Philox(key=55))
        perm = rng.permutation(200)
        permuted, _ = sacos(inst.M[:, perm], cfg)
        expected = np.sort(np.nonzero(np.isin(perm, base.declared))[0])
        assert list(permuted.declared) == list(expected)

    def test_sacos_missing_follows_column_permutation(self):
        inst = generate_instance(40, 200, 2, 8, seed=32)
        mask = bernoulli_mask(40, 200, 0.8, seed=33)
        mask[:, 11] = False
        cfg = AcosConfig(gamma=0.4, m=30, lam=0.4, seed=18)
        base, _ = sacos_missing(inst.M, mask, cfg)
        assert set(base.declared) == set(inst.true_support)
        rng = np.random.Generator(np.random.Philox(key=56))
        perm = rng.permutation(200)
        permuted, _ = sacos_missing(inst.M[:, perm], mask[:, perm], cfg)
        expected = np.sort(np.nonzero(np.isin(perm, base.declared))[0])
        assert list(permuted.declared) == list(expected)
        for name, flags in base.column_flags.items():
            assert np.array_equal(permuted.column_flags[name], flags[perm])


class TestDetect:
    def test_matches_direct_calls(self):
        inst = generate_instance(30, 150, 2, 4, seed=21)
        mask = bernoulli_mask(30, 150, 0.7, seed=3)
        cfg = AcosConfig(gamma=0.4, m=12, p=50, lam=0.4, seed=77)
        direct = {
            "acos": acos(inst.M, cfg),
            "sacos": sacos(inst.M, cfg),
            "sacos_missing": sacos_missing(inst.M, mask, cfg),
        }
        assert set(direct) == set(MODES)
        for mode, (est, reported) in direct.items():
            got, rate = detect(mode, inst.M, cfg, mask if mode == "sacos_missing" else None)
            assert np.array_equal(got.scores, est.scores)
            assert np.array_equal(got.declared, est.declared)
            assert got.mu_used == est.mu_used
            if mode == "sacos_missing":
                assert rate == reported
            else:
                assert rate == reported / (30 * 150)

    @pytest.mark.parametrize("mode", MODES)
    def test_estimate_is_complete_and_frozen(self, mode):
        inst = generate_instance(30, 150, 2, 4, seed=21)
        mask = bernoulli_mask(30, 150, 0.7, seed=3) if mode == "sacos_missing" else None
        est, _ = detect(mode, inst.M, AcosConfig(gamma=0.4, m=12, p=50, lam=0.4, seed=77), mask)
        assert est.score_path.ndim == 2 and est.score_path.shape[1] == 150
        assert any(np.array_equal(row, est.scores) for row in est.score_path)
        for f in dataclasses.fields(est):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(est, f.name, getattr(est, f.name))

    def test_invalid_mode_and_missing_mask(self):
        inst = generate_instance(10, 40, 1, 2, seed=0)
        cfg = AcosConfig(gamma=0.5, m=5, p=10, lam=0.4)
        with pytest.raises(ValueError):
            detect("other", inst.M, cfg)
        with pytest.raises(ValueError, match="mask"):
            detect("sacos_missing", inst.M, cfg)
        for mode in ("acos", "sacos"):
            with pytest.raises(ValueError, match="no other mode reads one"):
                detect(mode, inst.M, cfg, np.ones(inst.M.shape, bool))

    @pytest.mark.parametrize("mode", MODES)
    def test_complex_data_rejected(self, mode):
        # a float cast used to warn and then detect on the real part alone
        inst = generate_instance(30, 150, 2, 4, seed=21)
        mask = bernoulli_mask(30, 150, 0.7, seed=3) if mode == "sacos_missing" else None
        cfg = AcosConfig(gamma=0.4, m=12, p=50, lam=0.4, seed=77)
        with pytest.raises(ValueError, match="data must be real"):
            detect(mode, inst.M + 1j * inst.M, cfg, mask)

    @pytest.mark.parametrize("shape", [(30,), (30, 0)], ids=["vector", "no-columns"])
    @pytest.mark.parametrize("mode", ["acos", "sacos"])
    def test_non_matrix_data_rejected(self, mode, shape):
        cfg = AcosConfig(gamma=0.5, m=5, p=10, lam=0.4)
        with pytest.raises(ValueError, match="data must be a matrix"):
            detect(mode, np.ones(shape), cfg)


class TestConvergedFlag:
    @pytest.mark.parametrize("mode", MODES)
    def test_capped_separation_solve_is_reported(self, mode, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERS", 1)
        inst = generate_instance(30, 150, 2, 4, seed=21)
        mask = bernoulli_mask(30, 150, 0.7, seed=3) if mode == "sacos_missing" else None
        cfg = AcosConfig(gamma=0.4, m=12, p=50, lam=0.4, seed=77)
        est, _ = detect(mode, inst.M, cfg, mask)
        assert est.converged is False

    def test_capped_decoder_is_reported(self, monkeypatch):
        inst = generate_instance(40, 300, 3, 10, seed=8)
        cfg = AcosConfig(gamma=0.3, m=20, p=120, lam=0.4, seed=13)
        assert acos(inst.M, cfg)[0].converged is True
        monkeypatch.setattr(prox, "MAX_ITERS", 1)
        assert acos(inst.M, cfg)[0].converged is False

    def test_easy_instance_converges(self):
        inst = generate_instance(40, 300, 3, 10, seed=8)
        est, _ = sacos(inst.M, AcosConfig(gamma=0.3, m=20, lam=0.4, seed=13))
        assert est.converged is True


class TestScaleInvariance:
    @pytest.mark.parametrize("mode", ["sacos", "sacos_missing"])
    def test_declared_set_invariant_to_input_scale(self, mode):
        inst = generate_instance(40, 200, 2, 8, seed=32)
        mask = bernoulli_mask(40, 200, 0.8, seed=33) if mode == "sacos_missing" else None
        cfg = AcosConfig(gamma=0.4, m=30, p=80, lam=0.4, seed=18)
        ref = list(detect(mode, inst.M, cfg, mask)[0].declared)
        assert ref == list(inst.true_support)
        for scale in (1e-150, 1e-6, 1e6, 1e150):
            assert list(detect(mode, inst.M * scale, cfg, mask)[0].declared) == ref


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    @pytest.mark.parametrize("mode", MODES)
    def test_unsampled_column_is_invalid_input(self, mode, bad):
        inst = generate_instance(30, 150, 2, 4, seed=21)
        cfg = AcosConfig(gamma=0.4, m=12, p=50, lam=0.4, seed=77)
        sampled = make_column_sampler(150, cfg.gamma, derive_seed(cfg.seed, 1)).indices
        j = int(np.setdiff1d(np.arange(150), sampled)[0])
        M = inst.M.copy()
        M[:, j] = bad
        mask = None
        if mode == "sacos_missing":
            mask = bernoulli_mask(30, 150, 0.7, seed=3)
            mask[:, j] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="measurements must be finite"):
                detect(mode, M, cfg, mask)
