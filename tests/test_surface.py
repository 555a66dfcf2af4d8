"""The public surface and its input contract.

Each module's ``__all__`` is its surface, and every function in it has a
caller outside the tests.  Every array argument of a function in a surface,
of the constructor of ``MatrixSource``, the one class there that takes
input, and of a public method of a class there, is read as a real, finite
array of the right shape or refused: a complex value, a NaN, an infinity
or a wrong shape raises ValueError naming the argument.  The exceptions
are the operands of ``MatrixSource``'s reads, whose NaN or infinity is
refused as a non-finite measurement of the data.  A step-2 operand (the
design of ``lasso_path_solve``, the ``right`` of ``row_sketch``) is held
by its nonzeros as a ``sketching.SparseColumns``, which checks its slots
when it is built: a dense one is refused, and one whose values hold a NaN
or an infinity meets the refusals above.  The other classes are results
and configs (dataclasses) or errors, and take no input array.  On the
command line the same inputs exit 2.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchout
from sketchout import MODES, AcosConfig, bernoulli_mask, detect, generate_instance
from sketchout.cli import main
from sketchout.imaging import patch_matrix, saliency_map, write_pgm
from sketchout.pipeline import MatrixSource, acos, extract_support, sacos, sacos_missing
from sketchout.prox import as_real, lasso_path_solve
from sketchout.sketching import SparseColumns, make_sparse_sign_sketch
from sketchout.solver import as_mask, outlier_pursuit, rmc_solve, subspace_basis
from sketchout.synth import oracle_success

from conftest import write_csv

MODULES = [sketchout] + [
    importlib.import_module("sketchout." + info.name)
    for info in pkgutil.iter_modules(sketchout.__path__)
]


def _entries():
    """module.name -> object, for every function in a surface and every
    class there that is neither a dataclass nor an exception, and
    module.class.method for every public method of a class there."""
    found = {}
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found["%s.%s" % (obj.__module__.rsplit(".", 1)[1], name)] = obj
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                key = "%s.%s" % (obj.__module__.rsplit(".", 1)[1], name)
                if not dataclasses.is_dataclass(obj):
                    found[key] = obj
                for attr, method in vars(obj).items():
                    if inspect.isfunction(method) and not attr.startswith("_"):
                        found["%s.%s" % (key, attr)] = method
    return found


def _array_params(obj):
    return {
        name for name, par in inspect.signature(obj).parameters.items()
        if re.search(r"ndarray|SparseColumns", str(par.annotation))
    }


N1, N2 = 12, 30
INST = generate_instance(N1, N2, 1, 2, seed=3)
#: m = n1: sacos_missing samples every row, so it reads every observed entry
CFG = AcosConfig(gamma=0.5, m=N1, p=10, lam=0.4, seed=1)
FULL = np.ones((N1, N2), dtype=bool)
IMAGE = (np.arange(40 * 60).reshape(40, 60) % 7 * 30).astype(np.uint8)
DESIGN = make_sparse_sign_sketch(6, 10, seed=6)
RIGHT = make_sparse_sign_sketch(5, N2, seed=4)

#: entry -> (a call that reads every array argument it is given by keyword,
#: valid values of those arguments)
CASES = {
    "imaging.patch_matrix": (patch_matrix, dict(image=IMAGE)),
    "imaging.saliency_map": (
        lambda image: saliency_map(image, "sacos", AcosConfig(gamma=0.6, m=20, lam=0.4)),
        dict(image=IMAGE),
    ),
    "imaging.write_pgm": (lambda image: write_pgm(os.devnull, image), dict(image=IMAGE)),
    "pipeline.MatrixSource": (lambda M: MatrixSource(M).sketch(np.eye(N1)), dict(M=INST.M)),
    "pipeline.MatrixSource.sketch": (
        lambda op, idx: MatrixSource(INST.M).sketch(op, idx), dict(op=np.eye(N1), idx=np.arange(3)),
    ),
    "pipeline.MatrixSource.row_sketch": (
        lambda w, right: MatrixSource(INST.M).row_sketch(w, right),
        dict(w=np.ones(N1), right=RIGHT),
    ),
    "pipeline.MatrixSource.masked_rows": (
        lambda rows, mask: MatrixSource(INST.M).masked_rows(rows, mask),
        dict(rows=np.arange(3), mask=FULL[:3]),
    ),
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
        lasso_path_solve,
        dict(design=DESIGN, observation=np.asarray(DESIGN)[:, 0], regs=[0.1, 1.0]),
    ),
    "sketching.SparseColumns.columns": (RIGHT.columns, dict(cols=np.arange(3))),
    "solver.as_mask": (lambda mask: as_mask(mask, (N1, N2)), dict(mask=FULL)),
    "solver.outlier_pursuit": (lambda Y: outlier_pursuit(Y, 0.4), dict(Y=INST.M)),
    "solver.rmc_solve": (
        lambda Y_obs, mask: rmc_solve(Y_obs, mask, 0.4), dict(Y_obs=INST.M, mask=FULL),
    ),
    "solver.subspace_basis": (subspace_basis, dict(X=INST.L)),
    "solver.SubspaceBasis.project_out": (subspace_basis(INST.L).project_out, dict(X=INST.M)),
    "synth.oracle_success": (
        oracle_success, dict(score_path=np.abs(INST.M[:2]), true_support=INST.true_support),
    ),
}

#: The word each refusal names where it is not the parameter's own name.
LABELS = {"M": "data", "M_obs": "data", "Y": "data", "Y_obs": "data",
          "regs": "regularization weights"}

#: Operands of MatrixSource's reads, which skip a pass of their own for
#: finiteness: a NaN or an infinity in them reaches the measured block,
#: which is refused as non-finite.
MEASURED = {"op", "w", "right"}

#: Where each method argument meets the data (or the basis): the axis whose
#: length must match it.  ``rows`` has none; its length sets the mask's.
INNER_AXIS = {"op": 1, "w": 0, "right": 1, "mask": 1, "X": 0}

NO_ARRAYS = {
    "cli.main", "io.load_config", "io.read_matrix_csv", "io.write_phase_csv",
    "io.write_phase_pgm", "imaging.read_pgm", "pipeline.check_mode",
    "pipeline.measurement_count", "rng.derive_seed", "rng.generator",
    "sketching.make_column_sampler", "sketching.make_gaussian_sketch",
    "sketching.make_probe_vector", "sketching.make_row_subsampler",
    "sketching.make_sparse_sign_sketch", "sketching.max_outliers", "sketching.min_col_budget", "sketching.min_gamma", "sketching.min_row_budget",
    "sketching.SparseColumns.col_sq",
    "synth.add_noise", "synth.bernoulli_mask", "synth.generate_instance", "synth.phase_grid",
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
    if isinstance(value, SparseColumns):
        if kind in ("nan", "inf"):
            return SparseColumns(value.rows, _bad(value.values, kind), value.shape)
        # no SparseColumns is complex or of another rank: such a matrix
        # comes dense, and is refused as dense
        return _bad(np.asarray(value), kind)
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
    label = "finite" if arg in MEASURED and kind in ("nan", "inf") else LABELS.get(arg, arg)
    with pytest.raises(ValueError, match=label):
        call(**dict(good, **{arg: _bad(good[arg], kind)}))


#: The step-2 operands, each held by its nonzeros in its case.
STEP2 = [("pipeline.MatrixSource.row_sketch", "right"), ("prox.lasso_path_solve", "design")]


@pytest.mark.parametrize("name, arg", STEP2)
def test_dense_step2_operand_refused(name, arg):
    # the dense form of a valid operand, which both once read
    call, good = CASES[name]
    with pytest.raises(ValueError, match=arg + " must be a sketching.SparseColumns"):
        call(**dict(good, **{arg: np.asarray(good[arg])}))


@pytest.mark.parametrize("kind", ["complex", "nan", "inf", "shape"])
@pytest.mark.parametrize("name, arg", STEP2)
def test_matrix_held_by_its_nonzeros_is_read_alike(name, arg, kind):
    # a bad entry in a held operand's slots is refused as in a dense matrix:
    # a complex value or values of another rank when the operand is built,
    # a NaN or an infinity by the read
    call, good = CASES[name]
    held = good[arg]
    values = _bad(held.values, kind)
    if kind in ("complex", "shape"):
        match = "values must be real" if kind == "complex" else "rows and values must both be"
        with pytest.raises(ValueError, match=match):
            SparseColumns(held.rows, values, held.shape)
        return
    label = "finite" if arg in MEASURED else LABELS.get(arg, arg)
    with pytest.raises(ValueError, match=label):
        call(**dict(good, **{arg: SparseColumns(held.rows, values, held.shape)}))


def test_row_sketch_refuses_held_matrix_of_wrong_width():
    for width in (N2 - 1, N2 + 1):
        with pytest.raises(ValueError, match="right must have %d entries along axis 1" % N2):
            MatrixSource(INST.M).row_sketch(np.ones(N1), make_sparse_sign_sketch(5, width, seed=4))


@settings(max_examples=60, deadline=None)
@given(height=st.integers(1, 6), top=st.integers(0, 8), seed=st.integers(0, 2 ** 16))
def test_row_sketch_block_has_one_entry_per_operand_row(height, top, seed):
    # slots naming a row at or past the operand's height are refused when
    # the operand is built; a row sketch takes and counts one entry per row
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = rng.integers(0, top + 1, size=(3, N2))
    rows[0, 0] = top
    values = rng.standard_normal((3, N2))
    # nonzero slots of a column may not share a row: a repeat holds 0
    values[1][rows[1] == rows[0]] = 0.0
    values[2][(rows[2] == rows[0]) | (rows[2] == rows[1])] = 0.0
    if top >= height:
        with pytest.raises(ValueError, match="rows must be 1-D integer indices below %d" % height):
            SparseColumns(rows, values, (height, N2))
        return
    src = MatrixSource(INST.M)
    out = src.row_sketch(np.ones(N1), SparseColumns(rows, values, (height, N2)))
    assert out.shape == (height,) and src.measurements == height


def _longer(value, axis):
    """``value`` with its first entry along ``axis`` repeated at the end; a
    ``SparseColumns`` gains a column, its first."""
    if isinstance(value, SparseColumns):
        rows, values = (np.concatenate([a, a[:, :1]], axis=1) for a in (value.rows, value.values))
        return SparseColumns(rows, values, (value.shape[0], value.shape[1] + 1))
    value = np.asarray(value)
    return np.concatenate([value, value.take([0], axis=axis)], axis=axis)


@pytest.mark.parametrize(
    "name, arg", [(name, arg) for name in sorted(CASES) if name.count(".") == 2
                  for arg in sorted(CASES[name][1]) if arg in INNER_AXIS]
)
def test_method_array_of_wrong_length_raises_value_error(name, arg):
    call, good = CASES[name]
    with pytest.raises(ValueError, match=arg):
        call(**dict(good, **{arg: _longer(good[arg], INNER_AXIS[arg])}))


#: The index arguments besides ``true_support`` (``tests/test_synth.py``)
#: and the slot rows (``tests/test_sketching.py``): a call that reads each,
#: and the bound its indices lie below.
INDEXED = {
    "rows": (lambda rows: MatrixSource(INST.M).masked_rows(rows, FULL[:1]), N1),
    "idx": (lambda idx: MatrixSource(INST.M).sketch(np.eye(N1), idx), N2),
    "cols": (RIGHT.columns, N2),
}


@pytest.mark.parametrize("bad", ["negative", "fraction", "past_the_end"])
@pytest.mark.parametrize("arg", sorted(INDEXED))
def test_index_outside_the_range_raises_value_error(arg, bad):
    # one rule reads every index argument, and names it
    call, n = INDEXED[arg]
    value = {"negative": [-1], "fraction": [0.5], "past_the_end": [n]}[bad]
    with pytest.raises(ValueError, match="%s must be 1-D integer indices below %d" % (arg, n)):
        call(value)


@pytest.mark.parametrize("empty", [[], (), np.array([])], ids=["list", "tuple", "float_array"])
def test_empty_index_reads_nothing(empty):
    # numpy reads each spelling as float: the index rule reads it as the
    # empty integer index, and still refuses a 2-D empty input
    src = MatrixSource(INST.M)
    assert src.sketch(np.eye(N1), empty).shape == (N1, 0)
    assert src.masked_rows(empty, np.zeros((0, N2), bool)).shape == (0, N2)
    assert src.measurements == 0
    assert RIGHT.columns(empty).shape == (RIGHT.shape[0], 0)
    for arg, (call, n) in INDEXED.items():
        with pytest.raises(ValueError, match="%s must be 1-D integer indices below %d" % (arg, n)):
            call(np.zeros((0, 1)))


def test_every_public_function_has_a_caller_outside_the_tests():
    # a function that only the tests call belongs in the tests
    root = Path(__file__).resolve().parent.parent
    paths = [*(root / "src").rglob("*.py"), *(root / "scripts").glob("*.py"),
             *(root / "bench").glob("*.py"), root / "README.md"]
    texts = {path.resolve(): path.read_text() for path in paths}
    uncalled = [
        "%s.%s" % (module.__name__, name)
        for module in MODULES for name in module.__all__
        if inspect.isfunction(getattr(module, name)) and not any(
            re.search(r"\b%s\b" % name, text)
            for path, text in texts.items() if path != Path(module.__file__).resolve()
        )
    ]
    assert uncalled == []


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
            write_csv(Path(tmp) / "mask.csv", mask.astype(float))
            flags = ["--mask", str(Path(tmp) / "mask.csv")]
        code = main(["detect", str(data), "--mode", mode, "--gamma", "0.5", "--m", str(N1),
                     "--p", "10", "--lam", "0.4", "--seed", "1", *flags])
    assert code == (2 if refused else 0)
    if refused:
        with pytest.raises(ValueError, match="data"):
            detect(mode, M, CFG, mask)
    else:
        detect(mode, M, CFG, mask)
