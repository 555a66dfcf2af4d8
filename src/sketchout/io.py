"""File formats for the command-line tools.

* Matrices: CSV, row-major, first line the header ``rows,cols``, values at
  fixed precision 6 so outputs are byte-stable across platforms.
* Phase grids: one CSV row per feasible cell, plus an 8-bit grayscale PGM
  heat map (white = success) with rank varying along columns and outlier
  count along rows.
* Configs: flat JSON objects.
"""

from __future__ import annotations

import json

import numpy as np

from . import imaging
from .prox import as_real

__all__ = ["load_config", "read_matrix_csv", "write_matrix_csv", "write_phase_csv",
           "write_phase_pgm"]


def write_matrix_csv(path, X: np.ndarray) -> None:
    X = as_real(np.atleast_2d(X), "X", ndim=2)
    with open(path, "w", newline="\n") as fh:
        fh.write("%d,%d\n" % X.shape)
        for row in X:
            fh.write(",".join("%.6f" % v for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(t) for t in header.split(","))
        except ValueError as exc:
            raise ValueError("matrix file must start with a rows,cols header") from exc
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(
            "matrix body %s does not match header (%d, %d)" % (data.shape, rows, cols)
        )
    return data


def write_phase_csv(path, result) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("r,k,lambda_best,success_rate,trials,sampling_rate\n")
        for r in result.r_values:
            for k in result.k_values:
                if (r, k) not in result.grid:
                    continue
                fh.write(
                    "%d,%d,%.6f,%.6f,%d,%.6f\n"
                    % (
                        r,
                        k,
                        result.cell_lambda_best[(r, k)],
                        result.grid[(r, k)],
                        result.trials_per_cell,
                        result.cell_rate[(r, k)],
                    )
                )


def write_phase_pgm(path, result) -> None:
    """Heat map with one pixel per cell; 255 = always recovered."""
    img = np.zeros((len(result.k_values), len(result.r_values)), dtype=np.uint8)
    for i, k in enumerate(result.k_values):
        for j, r in enumerate(result.r_values):
            if (r, k) in result.grid:
                img[i, j] = int(round(255 * result.grid[(r, k)]))
    imaging.write_pgm(path, img)


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a flat JSON object")
    return cfg
