"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The Monte-Carlo criteria are desk-scale (20 trials per cell)
with correspondingly widened tolerances; every threshold is pinned here.
"""

import math

import numpy as np

from sketchout.imaging import read_pgm, saliency_map, write_pgm
from sketchout.pipeline import AcosConfig, measurement_count
from sketchout.sketching import make_gaussian_sketch
from sketchout.solver import outlier_pursuit, rmc_solve
from sketchout.synth import generate_instance, phase_grid

from conftest import (
    column_incoherence, f_jl, fixed_rho_reference, hypergeometric_tail_bound, nonzero_columns,
    principal_angle, separation_objective,
)
from saliency_demo import planted_image

SEED = 20260811


def report(criterion, detail, ok):
    print("[criterion %02d] %s ... %s" % (criterion, detail, "PASS" if ok else "FAIL"))
    assert ok, detail


def test_c01_sampling_rate_accounting():
    acos_cases = [  # (m, p) -> rate at |S| = 200, 100 x 1000
        (10, 100, 2100, 0.021),
        (20, 200, 4200, 0.042),
        (30, 300, 6300, 0.063),
    ]
    ok = True
    for m, p, count, rate in acos_cases:
        cfg = AcosConfig(gamma=0.2, m=m, p=p)
        got = measurement_count(cfg, 200, "acos", 100, 1000)
        ok = ok and got == (count, rate)
    for m in (10, 20, 30):
        cfg = AcosConfig(gamma=0.2, m=m)
        got = measurement_count(cfg, 200, "sacos", 100, 1000)
        ok = ok and got == (m * 1000, m / 100.0)
    report(1, "measurement counts reproduce the reference sampling rates", ok)


def test_c02_acos_white_region():
    res = phase_grid(
        mode="acos", n1=100, n2=1000, gamma=0.2, m=30, p=300, r_values=[5], k_values=[10],
        lambda_set=[0.3, 0.4, 0.5], trials=20, seed=SEED,
    )
    freq = res.grid[(5, 10)]
    report(2, "acos white region (r=5, k=10) success %.2f >= 0.9" % freq, freq >= 0.9)


def test_c03_acos_black_region():
    res = phase_grid(
        mode="acos", n1=100, n2=1000, gamma=0.2, m=30, p=300, r_values=[40], k_values=[100],
        lambda_set=[0.3, 0.4, 0.5], trials=20, seed=SEED + 1,
    )
    freq = res.grid[(40, 100)]
    report(3, "acos black region (r=40, k=100) success %.2f <= 0.1" % freq, freq <= 0.1)


def test_c04_sacos_phase_points():
    white = phase_grid(
        mode="sacos", n1=100, n2=1000, gamma=0.2, m=30, r_values=[10], k_values=[300],
        lambda_set=[0.3, 0.4, 0.5], trials=20, seed=SEED + 2,
    ).grid[(10, 300)]
    black = phase_grid(
        mode="sacos", n1=100, n2=1000, gamma=0.2, m=30, r_values=[40], k_values=[900],
        lambda_set=[0.3, 0.4, 0.5], trials=20, seed=SEED + 3,
    ).grid[(40, 900)]
    report(
        4,
        "sacos white %.2f >= 0.9 and black %.2f <= 0.1" % (white, black),
        white >= 0.9 and black <= 0.1,
    )


def test_c05_noisy_acos():
    res = phase_grid(
        mode="acos", n1=100, n2=1000, gamma=0.2, m=30, p=300, r_values=[5], k_values=[10],
        lambda_set=[0.3, 0.4, 0.5], trials=20, seed=SEED + 4, noise_sigma=1e-4, normalize=True,
    )
    freq = res.grid[(5, 10)]
    report(5, "noisy acos (sigma=1e-4) success %.2f >= 0.8" % freq, freq >= 0.8)


def test_c06_missing_data_sacos():
    res = phase_grid(
        mode="sacos_missing", n1=100, n2=1000, gamma=0.2, m=30, r_values=[5], k_values=[50],
        lambda_set=[0.3, 0.4, 0.5], trials=20, seed=SEED + 5, p_omega=0.7,
    )
    freq = res.grid[(5, 50)]
    rate = res.sampling_rate
    report(
        6,
        "missing-data sacos success %.2f >= 0.8 at %.0f%% sampling" % (freq, 100 * rate),
        freq >= 0.8 and abs(rate - 0.21) < 0.01,
    )


def test_c07_solver_oracle_equivalence():
    lam = 3.0 / (7.0 * math.sqrt(3))
    worst_gap = -np.inf
    worst_frob = 0.0
    for t in range(25):
        M = generate_instance(10, 20, 2, 3, seed=SEED + 10 + t).M
        full = np.ones(M.shape, bool)
        L = fixed_rho_reference(M, full, lam)
        sol = outlier_pursuit(M, lam)
        admm_obj = separation_objective(sol.low_rank, sol.column_sparse, lam)
        worst_gap = max(worst_gap, admm_obj - separation_objective(L, M - L, lam))
        masked = rmc_solve(M, full, lam)
        worst_frob = max(worst_frob, np.linalg.norm(sol.low_rank - masked.low_rank, "fro"))
    report(
        7,
        "objective gap to gap-certified reference %.2e <= 1e-4; full-mask "
        "distance %.1e <= 1e-5" % (worst_gap, worst_frob),
        worst_gap <= 1e-4 and worst_frob <= 1e-5,
    )


def test_c08_guarantee_regime_subspace_recovery():
    hits = 0
    for trial in range(100):
        r = 1 + trial % 3
        probe = generate_instance(50, 400, r, 1, seed=SEED + 200 + trial)
        k = max(1, int(400 / (1 + (121 / 9) * r * column_incoherence(probe.L))))
        inst = generate_instance(50, 400, r, k, seed=SEED + 200 + trial)
        mu = column_incoherence(inst.L)
        assert k <= 400 / (1 + (121 / 9) * r * mu)
        sol = outlier_pursuit(inst.M, 3.0 / (7.0 * math.sqrt(k)))
        angle = principal_angle(sol.low_rank, inst.L)
        exact = nonzero_columns(sol.column_sparse) == set(inst.true_support)
        hits += angle < 1e-3 and exact
    report(8, "guarantee-regime recovery %d/100 >= 95" % hits, hits >= 95)


def test_c09_jl_distortion_suite():
    dim = 80
    rng = np.random.Generator(np.random.Philox(key=SEED + 300))
    V = rng.standard_normal((dim, 10_000))
    V /= np.linalg.norm(V, axis=0)
    ok = True
    lines = []
    for m in (100, 300):
        sketch = make_gaussian_sketch(m, dim, seed=SEED + 301 + m)
        sq = np.sum((sketch.matrix @ V) ** 2, axis=0)
        for eps in (0.25, 0.5):
            freq = float(np.mean(np.abs(sq - 1.0) >= eps))
            bound = 2.0 * math.exp(-m * f_jl(eps))
            se = math.sqrt(max(bound * (1 - bound), 0.0) / 10_000)
            ok = ok and freq <= min(1.0, bound) + 3 * se
            lines.append("m=%d eps=%.2f: %.4f <= %.4f" % (m, eps, freq, bound + 3 * se))
    report(9, "JL distortion frequencies within bounds (%s)" % "; ".join(lines), ok)


def test_c10_hypergeometric_bound_suite():
    rng = np.random.Generator(np.random.Philox(key=SEED + 400))
    grid = [
        (N, M, n, eps)
        for (N, M, n) in [
            (400, 40, 60),
            (400, 100, 50),
            (1000, 100, 50),
            (1000, 300, 120),
            (4000, 200, 400),
        ]
        for eps in (0.3, 0.7, 1.2, 2.0)
    ]
    assert len(grid) == 20
    ok = True
    for N, M, n, eps in grid:
        draws = rng.hypergeometric(M, N - M, n, size=100_000)
        threshold = (1.0 + eps) * n * M / N
        emp = float(np.mean(draws >= threshold))
        bound = hypergeometric_tail_bound(N, M, n, eps)
        se = math.sqrt(max(bound * (1 - bound), 0.0) / 100_000)
        ok = ok and emp <= bound + 3 * se
    report(10, "empirical upper tails dominated by the bound on all 20 points", ok)


def test_c11_saliency_smoke(tmp_path):
    img = planted_image()  # 50 x 100, five hot patches, 20% sampling at m=20
    src = tmp_path / "in.pgm"
    write_pgm(src, img)
    cfg = AcosConfig(gamma=0.6, m=20, seed=3)
    mask, _ = saliency_map(read_pgm(src), "sacos", cfg)
    lit = {
        i for i in range(50) if mask[(i // 10) * 10, (i % 10) * 10] == 255
    }
    uniform_mask, _ = saliency_map(
        np.full((40, 60), 99, dtype=np.uint8), "sacos",
        AcosConfig(gamma=0.6, m=12, lam=0.4, seed=2),
    )
    ok = lit == {3, 11, 22, 33, 44} and not uniform_mask.any()
    report(11, "planted patches %s recovered; uniform image empty" % sorted(lit), ok)
