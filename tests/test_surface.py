"""The public surface and its input contract.

Each module's ``__all__`` is its surface.  Every array argument of a
function in a surface, and of the constructor of ``MatrixSource``, the one
class there that takes input, is read as a real, finite array of the right
shape or refused: a complex value, a NaN, an infinity or a wrong shape
raises ValueError naming the argument.  The other classes are results and
configs (dataclasses) or errors, and take no input array.  On the command
line the same inputs exit 2.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchout
from sketchout import MODES, AcosConfig, bernoulli_mask, detect, generate_instance, io
from sketchout.cli import main
from sketchout.imaging import patch_matrix, saliency_map, write_pgm
from sketchout.pipeline import MatrixSource, acos, extract_support, sacos, sacos_missing
from sketchout.prox import as_real, lasso_path_solve
from sketchout.solver import as_mask, outlier_pursuit, rmc_solve, subspace_basis
from sketchout.synth import column_incoherence, oracle_success

from conftest import write_csv

MODULES = [sketchout] + [
    importlib.import_module("sketchout." + info.name)
    for info in pkgutil.iter_modules(sketchout.__path__)
]


def _entries():
    """module.name -> object, for every function in a surface and every
    class there that is neither a dataclass nor an exception."""
    found = {}
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or (
                inspect.isclass(obj)
                and not dataclasses.is_dataclass(obj)
                and not issubclass(obj, Exception)
            ):
                found["%s.%s" % (obj.__module__.rsplit(".", 1)[1], name)] = obj
    return found


def _array_params(obj):
    return {
        name for name, par in inspect.signature(obj).parameters.items()
        if "ndarray" in str(par.annotation)
    }


N1, N2 = 12, 30
INST = generate_instance(N1, N2, 1, 2, seed=3)
#: m = n1: sacos_missing samples every row, so it reads every observed entry
CFG = AcosConfig(gamma=0.5, m=N1, p=10, lam=0.4, seed=1)
FULL = np.ones((N1, N2), dtype=bool)
IMAGE = (np.arange(40 * 60).reshape(40, 60) % 7 * 30).astype(np.uint8)
DESIGN = np.random.Generator(np.random.Philox(key=1)).standard_normal((6, 10))

#: entry -> (a call that reads every array argument it is given by keyword,
#: valid values of those arguments)
CASES = {
    "imaging.patch_matrix": (patch_matrix, dict(image=IMAGE)),
    "imaging.saliency_map": (
        lambda image: saliency_map(image, "sacos", AcosConfig(gamma=0.6, m=20, lam=0.4)),
        dict(image=IMAGE),
    ),
    "imaging.write_pgm": (lambda image: write_pgm(os.devnull, image), dict(image=IMAGE)),
    "io.write_matrix_csv": (lambda X: io.write_matrix_csv(os.devnull, X), dict(X=INST.M)),
    "pipeline.MatrixSource": (lambda M: MatrixSource(M).sketch(np.eye(N1)), dict(M=INST.M)),
    "pipeline.acos": (lambda M: acos(M, CFG), dict(M=INST.M)),
    "pipeline.sacos": (lambda M: sacos(M, CFG), dict(M=INST.M)),
    "pipeline.sacos_missing": (
        lambda M_obs, mask: sacos_missing(M_obs, mask, CFG), dict(M_obs=INST.M, mask=FULL),
    ),
    "pipeline.detect": (
        lambda M, mask: detect("sacos_missing", M, CFG, mask), dict(M=INST.M, mask=FULL),
    ),
    "pipeline.extract_support": (extract_support, dict(scores=np.abs(INST.M[0]))),
    "prox.as_real": (lambda x: as_real(x, "x", ndim=2), dict(x=INST.M)),
    "prox.lasso_path_solve": (
        lasso_path_solve, dict(design=DESIGN, observation=DESIGN[:, 0], regs=[0.1, 1.0]),
    ),
    "solver.as_mask": (lambda mask: as_mask(mask, (N1, N2)), dict(mask=FULL)),
    "solver.outlier_pursuit": (lambda Y: outlier_pursuit(Y, 0.4), dict(Y=INST.M)),
    "solver.rmc_solve": (
        lambda Y_obs, mask: rmc_solve(Y_obs, mask, 0.4), dict(Y_obs=INST.M, mask=FULL),
    ),
    "solver.subspace_basis": (subspace_basis, dict(X=INST.L)),
    "synth.column_incoherence": (column_incoherence, dict(L=INST.L)),
    "synth.oracle_success": (
        oracle_success, dict(score_path=np.abs(INST.M[:2]), true_support=INST.true_support),
    ),
}

#: The word each refusal names where it is not the parameter's own name.
LABELS = {"M": "data", "M_obs": "data", "Y": "data", "Y_obs": "data",
          "regs": "regularization weights"}

NO_ARRAYS = {
    "cli.main", "io.load_config", "io.read_matrix_csv", "io.write_phase_csv",
    "io.write_phase_pgm", "imaging.read_pgm", "pipeline.check_mode",
    "pipeline.measurement_count", "rng.derive_seed", "rng.generator", "sketching.f_jl",
    "sketching.make_column_sampler", "sketching.make_gaussian_sketch",
    "sketching.make_probe_vector", "sketching.make_row_subsampler", "sketching.max_outliers",
    "sketching.min_col_budget", "sketching.min_gamma", "sketching.min_row_budget",
    "synth.add_noise", "synth.bernoulli_mask", "synth.generate_instance",
    "synth.hypergeometric_tail_bound", "synth.phase_grid",
}


def test_every_entry_has_a_case():
    entries = _entries()
    assert set(entries) == set(CASES) | NO_ARRAYS
    for name, obj in entries.items():
        # the case feeds exactly the arguments the signature marks as arrays
        assert _array_params(obj) == set(CASES[name][1] if name in CASES else ()), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_call_passes(name):
    call, good = CASES[name]
    call(**good)


def _bad(value, kind):
    value = np.asarray(value)
    if kind == "complex":
        return value + 1j
    if kind == "shape":
        return np.stack([value, value], axis=-1)
    out = value.astype(float)
    out.flat[0] = np.nan if kind == "nan" else np.inf
    return out


@pytest.mark.parametrize("kind", ["complex", "nan", "inf", "shape"])
@pytest.mark.parametrize(
    "name, arg", [(name, arg) for name in sorted(CASES) for arg in sorted(CASES[name][1])]
)
def test_bad_array_raises_value_error(name, arg, kind):
    call, good = CASES[name]
    with pytest.raises(ValueError, match=LABELS.get(arg, arg)):
        call(**dict(good, **{arg: _bad(good[arg], kind)}))


@settings(max_examples=30, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    row=st.integers(0, N1 - 1),
    col=st.integers(0, N2 - 1),
    bad=st.sampled_from([np.nan, 0.5j]),
    observed=st.booleans(),
)
def test_bad_entry_in_any_column(mode, row, col, bad, observed):
    # A complex entry is refused wherever it is.  A NaN is refused wherever
    # the pipeline reads: every entry for acos and sacos, every observed
    # entry for sacos_missing (m = n1 samples every row).  An unobserved
    # entry is never read, so by design it is never checked either.
    M = INST.M.astype(type(bad))
    M[row, col] += bad
    mask = None
    if mode == "sacos_missing":
        mask = bernoulli_mask(N1, N2, 0.7, seed=2)
        mask[row, col] = observed
    refused = np.iscomplex(bad) or mask is None or observed
    with tempfile.TemporaryDirectory() as tmp:
        data, flags = Path(tmp) / "m.csv", []
        write_csv(data, M)
        if mask is not None:
            io.write_matrix_csv(Path(tmp) / "mask.csv", mask.astype(float))
            flags = ["--mask", str(Path(tmp) / "mask.csv")]
        code = main(["detect", str(data), "--mode", mode, "--gamma", "0.5", "--m", str(N1),
                     "--p", "10", "--lam", "0.4", "--seed", "1", *flags])
    assert code == (2 if refused else 0)
    if refused:
        with pytest.raises(ValueError, match="data"):
            detect(mode, M, CFG, mask)
    else:
        detect(mode, M, CFG, mask)
