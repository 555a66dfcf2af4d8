#!/usr/bin/env python3
"""Declaration study: how often acos and sacos declare exactly the set their oracle sees.

Every cell but the last holds 20 inputs of size 100 x 1000, input i run
with ``AcosConfig(gamma=0.2, m=30, p=300, lam=0.4, seed=500 + i)``; a
noisy input is normalised and then gets ``add_noise(inst, sigma, 99 + i)``.

- (r, k), sigma: input i is ``generate_instance(100, 1000, r, k,
  seed=7000 + 1000 r + 10 k + i)``.
- unequal norms, D: input i is ``generate_instance(100, 1000, 5, 10,
  seed=9000 + i, normalize=True)`` with outlier column j scaled by
  10^(D u_j), the ten u_j drawn uniform on [0, 1) by ``generator(9500 +
  i)``, so the outlier norms spread over up to D decades.
- zero column: the one input of the test
  ``test_zero_column_declares_nothing_without_outliers``, ``generate_instance(
  40, 200, 2, 0, seed=3)`` with column 17 set to zero, run with
  ``AcosConfig(gamma=0.4, m=30, p=60, lam=0.4, seed=1)``; acos decodes with
  p = 60, 0.3 n2 as in the corpus.

Each input is run through ``evaluate`` of ``scripts/check_corpus.py``.
Per cell and mode the script prints a Markdown table row: oracle success
(some point of the score path separates the outliers), exact declarations
(declared set equal to the planted one), false positives and false
negatives summed over the inputs, and the mean milliseconds per
detection.  Run it from the repository root with ``PYTHONPATH=src``; it
takes about 30 s with one BLAS thread.
"""

import argparse
import time
from dataclasses import replace

from sketchout import AcosConfig, generate_instance
from sketchout.rng import generator
from sketchout.synth import add_noise

from check_corpus import evaluate

INPUTS = 20


def config(i):
    return AcosConfig(gamma=0.2, m=30, p=300, lam=0.4, seed=500 + i)


def planted(r, k, sigma=0.0):
    def make(i):
        inst = generate_instance(100, 1000, r, k, seed=7000 + 1000 * r + 10 * k + i, normalize=sigma > 0)
        return add_noise(inst, sigma, 99 + i), config(i)
    return make


def unequal_norms(D, sigma=0.0):
    def make(i):
        inst = generate_instance(100, 1000, 5, 10, seed=9000 + i, normalize=True)
        C = inst.C.copy()
        C[:, inst.true_support] *= 10.0 ** (D * generator(9500 + i).random(10))
        return add_noise(replace(inst, M=inst.L + C, C=C), sigma, 99 + i), config(i)
    return make


def zero_column(i):
    inst = generate_instance(40, 200, 2, 0, seed=3)
    inst.M[:, 17] = 0.0
    return inst, AcosConfig(gamma=0.4, m=30, p=60, lam=0.4, seed=1)


def cells():
    """Yield (name, input count, input maker) for every cell."""
    for r, k in ((5, 10), (10, 30), (15, 30), (10, 50), (20, 60)):
        yield "(%d, %d)" % (r, k), INPUTS, planted(r, k)
    for sigma in (1e-4, 1e-3):
        yield "(5, 10), sigma %g" % sigma, INPUTS, planted(5, 10, sigma)
    for sigma in (0.0, 1e-4):
        for D in range(4):
            name = "unequal norms, D %d%s" % (D, ", sigma %g" % sigma if sigma else "")
            yield name, INPUTS, unequal_norms(D, sigma)
    yield "zero column", 1, zero_column


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    print("| cell | mode | oracle success | exact | false positives | false negatives | ms / detection |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, count, make in cells():
        for mode in ("acos", "sacos"):
            oracle = exact = false_pos = false_neg = seconds = 0
            for i in range(count):
                inst, cfg = make(i)
                start = time.perf_counter()
                e = evaluate(mode, inst, None, cfg)
                seconds += time.perf_counter() - start
                planted_count, declared_count = inst.true_support.size, len(e["declared"])
                oracle += e["oracle_success"]
                exact += e["true_positives"] == planted_count == declared_count
                false_pos += declared_count - e["true_positives"]
                false_neg += planted_count - e["true_positives"]
            print("| %s | %s | %d of %d | %d | %d | %d | %.0f |"
                  % (name, mode, oracle, count, exact, false_pos, false_neg, 1e3 * seconds / count))


if __name__ == "__main__":
    main()
