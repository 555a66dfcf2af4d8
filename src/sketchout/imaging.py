"""Patch matrices and saliency masks for grayscale images.

An image is decomposed into non-overlapping PATCH x PATCH patches, each
vectorized by column stacking into one column of a patch matrix; on the
low-rank-plus-outlier model, salient patches are exactly the outlier
columns, so ``saliency_map`` declares the patches that ``detect``
declares.  Trailing pixels that do not fill a whole patch are dropped;
every covered pixel appears exactly once in the matrix, so the covered
region round-trips exactly.  The patch grid follows from the image shape
alone: an h x w image has (h // PATCH) x (w // PATCH) patches, ordered
row-major.

Only binary PGM (P5, maxval 255) images are handled; callers convert
other formats beforehand.
"""

from __future__ import annotations

import numpy as np

from .pipeline import AcosConfig, detect
from .prox import as_real

__all__ = ["PATCH", "patch_matrix", "read_pgm", "saliency_map", "write_pgm"]

#: Side of a square patch, in pixels.
PATCH = 10


def patch_matrix(image: np.ndarray) -> np.ndarray:
    """The PATCH^2 x patch-count matrix of a grayscale image: one column
    per patch (column-stacked pixels in [0, 1]), patches row-major over
    the patch grid; integer pixels are divided by 255."""
    scale = 255.0 if np.asarray(image).dtype.kind in "ui" else 1.0
    image = as_real(image, "image", ndim=2) / scale
    h, w = image.shape
    if h < PATCH or w < PATCH:
        raise ValueError("image smaller than one patch")
    gr, gc = h // PATCH, w // PATCH
    blocks = image[: gr * PATCH, : gc * PATCH].reshape(gr, PATCH, gc, PATCH)
    # column j = (i_patch * gc + j_patch); each patch column-stacked
    cols = blocks.transpose(0, 2, 3, 1).reshape(gr * gc, PATCH * PATCH)
    return cols.T.copy()


def saliency_map(
    image: np.ndarray, mode: str, cfg: AcosConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch saliency mask from compressive samples of the patch matrix.

    Runs the chosen pipeline on ``patch_matrix(image)``; the salient
    patches are the outlier columns it declares.  Returns the uint8 mask
    over the covered region (PATCH * (h // PATCH) rows by PATCH * (w //
    PATCH) columns), 255 on the declared patches and 0 elsewhere, and the
    sorted indices of the declared patches (row-major over the patch grid).
    """
    est, _ = detect(mode, patch_matrix(image), cfg)
    h, w = np.shape(image)
    lit = np.zeros((h // PATCH, w // PATCH), dtype=np.uint8)
    lit.flat[est.declared] = 255
    return np.kron(lit, np.ones((PATCH, PATCH), dtype=np.uint8)), est.declared


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) image as a uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError("only binary PGM (P5) images are supported")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError("only maxval 255 is supported")
    pos += 1  # single whitespace after the header
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).copy()


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array of integer pixels in [0, 255] as binary PGM (P5,
    maxval 255); any other pixel raises ValueError rather than wrap."""
    image = as_real(image, "image", ndim=2)
    if not np.all((image >= 0) & (image <= 255) & (image == np.floor(image))):
        raise ValueError("image pixels must be integers in [0, 255]")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(image.astype(np.uint8).tobytes())
