"""Command-line front end.

Subcommands:

* ``budget``   -- print the sufficient-sample-size validators for a
  problem size.
* ``detect``   -- run one pipeline on a matrix file and print the declared
  outlier columns and the sampling rate.
* ``saliency`` -- compute a per-patch saliency mask for a PGM image.
* ``phase``    -- run a phase-transition grid from a JSON config and write
  CSV + PGM outputs.

Exit codes: 0 success, 2 invalid input (non-finite data included), 3
solver failure.  A warning the package raises during a command goes to
stderr once per distinct message, as ``warning: <message>``, before any
error line; it does not change the exit code.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import warnings

from . import io
from .imaging import PATCH, read_pgm, saliency_map, write_pgm
from .pipeline import MODES, AcosConfig, PipelineError, detect
from .sketching import SampleBudget, max_outliers, min_col_budget, min_gamma, min_row_budget
from .solver import SolverDivergenceError
from .synth import phase_grid

__all__ = ["main"]


def _add_config_flags(parser) -> None:
    """The AcosConfig flags shared by ``detect`` and ``saliency``."""
    parser.add_argument("--gamma", type=float, default=0.2)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--p", type=int, default=0)
    parser.add_argument("--lam", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _config(args) -> AcosConfig:
    return AcosConfig(gamma=args.gamma, m=args.m, p=args.p, lam=args.lam, seed=args.seed)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sketchout", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("budget", help="print sampling-budget validators")
    b.add_argument("--n2", type=int, required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--delta", type=float, default=0.1)
    b.add_argument("--mu-l", type=float, default=1.0)
    b.add_argument("--n-low", type=int, default=None, help="nonzero low-rank columns (default n2 - k)")

    d = sub.add_parser("detect", help="identify outlier columns of a matrix file")
    d.add_argument("matrix", help="CSV matrix with rows,cols header")
    d.add_argument("--mode", choices=MODES, default="acos")
    d.add_argument("--mask", default=None, help="CSV 0/1 mask (sacos_missing only)")
    _add_config_flags(d)

    s = sub.add_parser("saliency", help="saliency mask for a PGM image")
    s.add_argument("image", help="input PGM (P5) image")
    s.add_argument("output", help="output PGM mask")
    s.add_argument("--mode", choices=["acos", "sacos"], default="sacos")
    _add_config_flags(s)

    p = sub.add_parser("phase", help="phase-transition grid from a JSON config")
    p.add_argument("config", help="flat JSON config")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-pgm", required=True)
    return top


def _cmd_budget(args) -> int:
    n_low = args.n_low if args.n_low is not None else args.n2 - args.k
    budget = SampleBudget(
        n2=args.n2, n_L=n_low, r=args.r, k=args.k, mu_L=args.mu_l, delta=args.delta,
    )
    # compute every value first, so invalid input leaves stdout empty
    m_min, p_min = min_row_budget(budget), min_col_budget(budget)
    gamma, k_max = min_gamma(budget), max_outliers(budget)
    print("m_min     = %d" % m_min)
    print("p_min     = %d" % p_min)
    print("gamma_min = %.6f%s" % (gamma, "  (INFEASIBLE: rate above 1)" if gamma > 1 else ""))
    print("k_max     = %d" % k_max)
    print(
        "note: the guarantee constants are conservative; empirical runs "
        "succeed with far smaller m and p (e.g. m = 0.3 n1, p = 0.3 n2)."
    )
    return 0


def _cmd_detect(args) -> int:
    M = io.read_matrix_csv(args.matrix)
    mask = None if args.mask is None else io.read_matrix_csv(args.mask)
    est, rate = detect(args.mode, M, _config(args), mask)
    print("declared: %s" % ",".join(str(i) for i in est.declared))
    print("sampling_rate: %.6f" % rate)
    return 0


def _cmd_saliency(args) -> int:
    image = read_pgm(args.image)
    mask, declared = saliency_map(image, args.mode, _config(args))
    write_pgm(args.output, mask)
    print("salient patches: %d / %d" % (declared.size, mask.size // PATCH**2))
    return 0


def _cmd_phase(args) -> int:
    raw = io.load_config(args.config)
    # the config keys are phase_grid's keywords: a missing or unknown key
    # fails here, before any trial runs
    try:
        inspect.signature(phase_grid).bind(**raw)
    except TypeError as exc:
        raise ValueError("config: %s" % exc) from exc
    result = phase_grid(**raw)
    io.write_phase_csv(args.out_csv, result)
    io.write_phase_pgm(args.out_pgm, result)
    print("cells: %d  mean sampling rate: %.4f" % (len(result.grid), result.sampling_rate))
    return 0


_COMMANDS = {
    "budget": _cmd_budget,
    "detect": _cmd_detect,
    "saliency": _cmd_saliency,
    "phase": _cmd_phase,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        # the package's own warnings are reported whatever filters the caller set
        warnings.filterwarnings("always", module=r"sketchout\.")
        try:
            code, failure = _COMMANDS[args.command](args), None
        except (ValueError, OSError) as exc:
            code, failure = 2, "error: %s" % exc
        except (SolverDivergenceError, PipelineError, FloatingPointError) as exc:
            code, failure = 3, "solver failure: %s" % exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print("warning: %s" % message, file=sys.stderr)
    if failure is not None:
        print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
