#!/usr/bin/env python3
"""Run all three modes over a fixed 196-entry corpus and report what they declare.

Every input is a 100 x 1000 planted instance run with gamma 0.2, m 30, p 300
(read by acos only) and lam 0.4; input i of cell (r, k) uses instance seed
1000 r + 10 k + i and config seed 500 + i (``entry``).  acos and sacos each
run on the same 90 inputs, of the cells (5, 10) x 30, (40, 100) x 15,
(10, 30) x 10, (5, 0) x 5, (15, 30) x 10, (10, 50) x 10 and (20, 60) x 10.
sacos_missing runs on the 16 inputs of cell (5, 50), with entries observed
at rate 0.7 under mask seed 900 + i.  For every entry the script prints the
mode, the declared count, the true-positive count, ``converged``, the
sampling rate and (acos only) the winning decoder weight ``mu_used``, then
the oracle success count of each cell and mode.  ``--json PATH`` writes the
same data plus each declared set and a SHA-256 ``digest`` of the bytes of
the entry's ``score_path`` and ``scores``, one entry per line, so the output
of two commits can be diffed, bit for bit where the digests agree.
``--expect PATH`` compares every field of every entry and cell (except
``mu_used``, which drifts at solver precision, and ``digest``, which moves
with it) with a snapshot written by ``--json``, such as ``scripts/corpus_expected.json``,
names each entry that differs and the fields that do, and exits 1 if any
does.  The full corpus takes about 10 s with one BLAS thread.
"""

import argparse
import hashlib
import json
import pathlib
import sys

from sketchout import AcosConfig, bernoulli_mask, detect, generate_instance
from sketchout.synth import oracle_success

CELLS = [((5, 10), 30), ((40, 100), 15), ((10, 30), 10), ((5, 0), 5),
         ((15, 30), 10), ((10, 50), 10), ((20, 60), 10)]
MODE_CELLS = {"acos": CELLS, "sacos": CELLS, "sacos_missing": [((5, 50), 16)]}


def entry(mode, r, k, i):
    """(instance, mask, config) of input i of cell (r, k) for ``mode``; the
    mask is None unless ``mode`` is sacos_missing.  Any i >= 0 gives an
    input, also past the cell's count in the corpus."""
    inst = generate_instance(100, 1000, r, k, seed=1000 * r + 10 * k + i)
    mask = bernoulli_mask(100, 1000, 0.7, seed=900 + i) if mode == "sacos_missing" else None
    return inst, mask, AcosConfig(gamma=0.2, m=30, p=300, lam=0.4, seed=500 + i)


def corpus():
    """Yield (mode, r, k, i, instance, mask, config) for every entry."""
    for mode, cells in MODE_CELLS.items():
        for (r, k), count in cells:
            for i in range(count):
                yield (mode, r, k, i) + entry(mode, r, k, i)


def evaluate(mode, inst, mask, cfg):
    """Detect on one input and return what the corpus records of it."""
    est, rate = detect(mode, inst.M, cfg, mask)
    declared = est.declared.tolist()
    digest = hashlib.sha256(est.score_path.tobytes() + est.scores.tobytes()).hexdigest()
    return dict(declared=declared,
                true_positives=len(set(declared) & set(inst.true_support.tolist())),
                converged=est.converged, rate=rate, mu_used=est.mu_used,
                oracle_success=oracle_success(est.score_path, inst.true_support), digest=digest)


def dump(result):
    """The ``--json`` text of a result: one entry or cell per line."""
    lines = {part: ",\n".join(map(json.dumps, result[part])) for part in ("inputs", "cells")}
    return '{"inputs": [\n%(inputs)s\n], "cells": [\n%(cells)s\n]}\n' % lines


def differences(got, want):
    """One line per entry or cell whose fields differ between two results
    in the ``--json`` format, ``mu_used`` and ``digest`` aside."""

    def entries(doc):
        return {(part, e["mode"], e["r"], e["k"], e.get("i")):
                {f: v for f, v in e.items() if f not in ("mu_used", "digest")}
                for part in ("inputs", "cells") for e in doc[part]}

    got, want = entries(got), entries(want)
    lines = []
    for key in sorted(got.keys() | want.keys(), key=str):
        g, w = got.get(key, {}), want.get(key, {})
        fields = sorted(f for f in g.keys() | w.keys() if g.get(f) != w.get(f))
        if fields:
            lines.append("%s differs from the snapshot in %s"
                         % (" ".join(map(str, key)), ", ".join(fields)))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", type=pathlib.Path, help="also write the results here")
    ap.add_argument("--expect", type=pathlib.Path,
                    help="compare with this snapshot and exit 1 if any field differs")
    args = ap.parse_args()

    inputs, cells = [], {}
    for mode, r, k, i, inst, mask, cfg in corpus():
        e = dict(mode=mode, r=r, k=k, i=i, **evaluate(mode, inst, mask, cfg))
        cell = cells.setdefault((mode, r, k), dict(mode=mode, r=r, k=k, inputs=0,
                                                   oracle_successes=0))
        cell["inputs"] += 1
        cell["oracle_successes"] += e["oracle_success"]
        inputs.append(e)
        mu = "" if e["mu_used"] is None else ", mu_used %.6g" % e["mu_used"]
        print("%-13s (%d,%d) input %2d: declared %4d, true positives %3d, converged %s, rate %.6f%s"
              % (mode, r, k, i, len(e["declared"]), e["true_positives"], e["converged"], e["rate"], mu))
    for cell in cells.values():
        print("%(mode)-13s (%(r)d,%(k)d) oracle success %(oracle_successes)d/%(inputs)d" % cell)
    result = dict(inputs=inputs, cells=list(cells.values()))
    if args.json:
        args.json.write_text(dump(result))
    if args.expect:
        # compare the JSON form, as the snapshot holds it
        bad = differences(json.loads(dump(result)), json.loads(args.expect.read_text()))
        for line in bad:
            print(line)
        print("corpus gate: %d entries differ from %s" % (len(bad), args.expect))
        sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
