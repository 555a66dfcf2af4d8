#!/usr/bin/env python3
"""Accuracy and length of the masked separation solves, against a certified reference.

Runs ``solver.rmc_solve`` on two fixed sets of separation subproblems, the
ones that ``detect("sacos_missing", ...)`` hands to it (taken by the
helpers of ``tests/conftest.py`` that the solver tests use too):

- c06: the 16 sacos_missing inputs of ``scripts/check_corpus.py``
  (100 x 1000, rank 5, 50 outliers, entries observed at rate 0.7);
- p_omega 0.5: the 20 trials of ``phase_grid(mode="sacos_missing", n1=100,
  n2=1000, m=30, gamma=0.2, r_values=[5], k_values=[50], lambda_set=[0.4],
  seed=11, p_omega=0.5)``.

Each solve is compared with ``fixed_rho_reference`` of ``tests/conftest.py``,
a plain fixed-penalty loop run to a relative duality gap of 1e-10.  Per set
the script prints the mean and largest iteration count, the worst sin θ
between the leading 5 left singular vectors of the solve and the reference,
the worst relative objective excess of the solve's L over the reference's
(the objective of L is ||L||_* + lam sum_j ||P_Omega(Y - L)_j||), the worst
gap the solve reports (``OpSolution.gap``), and how many of its learned
bases (``subspace_basis``) have more than 5 dimensions.  Run it from the
repository root with ``PYTHONPATH=src``; it takes about 40 s with one
BLAS thread, most of it in the references.
"""

import argparse
import pathlib
import sys

import numpy as np

from sketchout.solver import rmc_solve, subspace_basis

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from conftest import (  # noqa: E402
    corpus_c06_input,
    fixed_rho_reference,
    half_observed_input,
    leading_sin_theta,
    separation_objective,
)

RANK = 5


def study(inputs):
    iters, sin_theta, excess, gaps, wide = [], [], [], [], 0
    for Y, mask, lam in inputs:
        sol = rmc_solve(Y, mask, lam)
        ref = fixed_rho_reference(Y, mask, lam)
        objective = [separation_objective(L, np.where(mask, Y - L, 0.0), lam) for L in (sol.low_rank, ref)]
        iters.append(sol.iterations)
        sin_theta.append(leading_sin_theta(sol.low_rank, ref, RANK))
        excess.append((objective[0] - objective[1]) / objective[1])
        gaps.append(sol.gap)
        wide += subspace_basis(sol.low_rank).dim > RANK
    return (np.mean(iters), max(iters), max(sin_theta), max(excess), max(gaps), wide, len(iters))


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    print("| set | mean iterations | max iterations | worst sin θ, top %d | "
          "worst objective excess | worst gap | bases with dim > %d |" % (RANK, RANK))
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, inputs in (("c06", map(corpus_c06_input, range(16))),
                         ("p_omega 0.5", map(half_observed_input, range(20)))):
        mean, top, sin_theta, excess, gap, wide, count = study(inputs)
        print("| %s | %.1f | %d | %.1e | %.1e | %.1e | %d of %d |"
              % (name, mean, top, sin_theta, excess, gap, wide, count))


if __name__ == "__main__":
    main()
