#!/usr/bin/env python3
"""Run acos over a fixed 60-input corpus and report what it declares.

Each input is a 100 x 1000 planted instance, decoded with gamma 0.2, m 30,
p 300 and lam 0.4.  The (r, k) cells and their input counts are (5, 10) x
30, (40, 100) x 15, (10, 30) x 10 and (5, 0) x 5; input i of cell (r, k)
uses instance seed 1000 r + 10 k + i and config seed 500 + i.  For every
input the script prints the declared count, the true-positive count and
the winning decoder weight ``mu_used``, then the oracle success count of
each cell.  ``--json PATH`` writes the same data plus each declared set,
so the output of two commits can be diffed.  The full corpus takes about
15 s with one BLAS thread.
"""

import argparse
import json
import pathlib

from sketchout import AcosConfig, acos, generate_instance
from sketchout.synth import oracle_success

CELLS = [((5, 10), 30), ((40, 100), 15), ((10, 30), 10), ((5, 0), 5)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", type=pathlib.Path, help="also write the results here")
    args = ap.parse_args()

    inputs, cells = [], []
    for (r, k), count in CELLS:
        successes = 0
        for i in range(count):
            inst = generate_instance(100, 1000, r, k, seed=1000 * r + 10 * k + i)
            cfg = AcosConfig(gamma=0.2, m=30, p=300, lam=0.4, seed=500 + i)
            est, _ = acos(inst.M, cfg)
            declared = est.declared.tolist()
            true_pos = len(set(declared) & set(inst.true_support.tolist()))
            success = oracle_success(est.score_path, inst.true_support)
            successes += success
            inputs.append(dict(r=r, k=k, i=i, declared=declared, true_positives=true_pos,
                               mu_used=est.mu_used, oracle_success=success))
            print("(%d,%d) input %2d: declared %4d, true positives %3d, mu_used %.6g"
                  % (r, k, i, len(declared), true_pos, est.mu_used))
        cells.append(dict(r=r, k=k, inputs=count, oracle_successes=successes))
    for cell in cells:
        print("(%(r)d,%(k)d) oracle success %(oracle_successes)d/%(inputs)d" % cell)
    if args.json:
        args.json.write_text(json.dumps(dict(inputs=inputs, cells=cells), indent=1) + "\n")


if __name__ == "__main__":
    main()
