#!/usr/bin/env python3
"""Run all three modes over a fixed 136-entry corpus and report what they declare.

acos and sacos each run on the same 60 inputs: 100 x 1000 planted
instances with gamma 0.2, m 30, p 300 (acos only) and lam 0.4.  The (r, k)
cells and their input counts are (5, 10) x 30, (40, 100) x 15, (10, 30) x
10 and (5, 0) x 5; input i of cell (r, k) uses instance seed
1000 r + 10 k + i and config seed 500 + i.  sacos_missing runs on 16
inputs of cell (5, 50) with entries observed at rate 0.7: input i uses
instance seed 5500 + i, mask seed 900 + i, config seed 500 + i, gamma 0.2,
m 30 and lam 0.4.  For every entry the script prints the mode, the
declared count, the true-positive count, ``converged``, the sampling rate
and (acos only) the winning decoder weight ``mu_used``, then the oracle
success count of each cell and mode.  ``--json PATH`` writes the same
data plus each declared set, so the output of two commits can be diffed.
The full corpus takes about 10 s with one BLAS thread.
"""

import argparse
import json
import pathlib

from sketchout import AcosConfig, bernoulli_mask, detect, generate_instance
from sketchout.synth import oracle_success

CELLS = [((5, 10), 30), ((40, 100), 15), ((10, 30), 10), ((5, 0), 5)]


def corpus():
    """Yield (mode, r, k, i, instance, mask, config) for every entry."""
    for mode in ("acos", "sacos"):
        for (r, k), count in CELLS:
            for i in range(count):
                inst = generate_instance(100, 1000, r, k, seed=1000 * r + 10 * k + i)
                cfg = AcosConfig(gamma=0.2, m=30, p=300, lam=0.4, seed=500 + i)
                yield mode, r, k, i, inst, None, cfg
    for i in range(16):
        inst = generate_instance(100, 1000, 5, 50, seed=5500 + i)
        mask = bernoulli_mask(100, 1000, 0.7, seed=900 + i)
        cfg = AcosConfig(gamma=0.2, m=30, lam=0.4, seed=500 + i)
        yield "sacos_missing", 5, 50, i, inst, mask, cfg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", type=pathlib.Path, help="also write the results here")
    args = ap.parse_args()

    inputs, cells = [], {}
    for mode, r, k, i, inst, mask, cfg in corpus():
        est, rate = detect(mode, inst.M, cfg, mask)
        declared = est.declared.tolist()
        true_pos = len(set(declared) & set(inst.true_support.tolist()))
        success = oracle_success(est.score_path, inst.true_support)
        cell = cells.setdefault((mode, r, k), dict(mode=mode, r=r, k=k, inputs=0,
                                                   oracle_successes=0))
        cell["inputs"] += 1
        cell["oracle_successes"] += success
        inputs.append(dict(mode=mode, r=r, k=k, i=i, declared=declared,
                           true_positives=true_pos, converged=est.converged, rate=rate,
                           mu_used=est.mu_used, oracle_success=success))
        mu = "" if est.mu_used is None else ", mu_used %.6g" % est.mu_used
        print("%-13s (%d,%d) input %2d: declared %4d, true positives %3d, converged %s, "
              "rate %.6f%s" % (mode, r, k, i, len(declared), true_pos, est.converged, rate, mu))
    for cell in cells.values():
        print("%(mode)-13s (%(r)d,%(k)d) oracle success %(oracle_successes)d/%(inputs)d" % cell)
    if args.json:
        args.json.write_text(
            json.dumps(dict(inputs=inputs, cells=list(cells.values())), indent=1) + "\n")


if __name__ == "__main__":
    main()
