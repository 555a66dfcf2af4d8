"""Patch matrices and saliency masks for grayscale images.

An image is decomposed into non-overlapping square patches, each
vectorized by column stacking into one column of a patch matrix; on the
low-rank-plus-outlier model, salient patches are exactly the outlier
columns.  Trailing pixels that do not fill a whole patch are dropped;
every covered pixel appears exactly once in the matrix, so the covered
region round-trips exactly.

Only binary PGM (P5, maxval 255) images are handled; callers convert
other formats beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pipeline import AcosConfig, detect

#: Scores at or below this fraction of the patch-matrix column scale are
#: treated as exact zeros, so a perfectly explained image declares nothing.
SCORE_FLOOR = 1e-9


@dataclass
class PatchGrid:
    """Vectorized non-overlapping patches of a grayscale image.

    ``matrix`` has one column per patch (column-stacked pixels in [0, 1]),
    patches ordered row-major over the patch grid.
    """

    image_height: int
    image_width: int
    patch: int
    matrix: np.ndarray = field(repr=False)

    @property
    def grid_rows(self) -> int:
        return self.image_height // self.patch

    @property
    def grid_cols(self) -> int:
        return self.image_width // self.patch


def patch_matrix(image: np.ndarray, patch: int = 10) -> PatchGrid:
    """Decompose a grayscale image into a patch-size^2 x patch-count matrix."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    if patch < 1:
        raise ValueError("patch side must be positive")
    h, w = image.shape
    if h < patch or w < patch:
        raise ValueError("image smaller than one patch")
    if image.dtype.kind in "ui":
        image = image.astype(float) / 255.0
    else:
        image = image.astype(float)
    gr, gc = h // patch, w // patch
    blocks = image[: gr * patch, : gc * patch].reshape(gr, patch, gc, patch)
    # column j = (i_patch * gc + j_patch); each patch column-stacked
    cols = blocks.transpose(0, 2, 3, 1).reshape(gr * gc, patch * patch)
    return PatchGrid(h, w, patch, cols.T.copy())


def patch_mask_image(grid: PatchGrid, declared) -> np.ndarray:
    """255/0 mask over the covered region with declared patches lit."""
    patch, gr, gc = grid.patch, grid.grid_rows, grid.grid_cols
    flat = np.zeros(gr * gc, dtype=np.uint8)
    flat[np.asarray(declared, dtype=int)] = 255
    return np.kron(flat.reshape(gr, gc), np.ones((patch, patch), dtype=np.uint8))


def saliency_map(
    image: np.ndarray,
    mode: str,
    cfg: AcosConfig,
    threshold: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch saliency mask from compressive samples of the patch matrix.

    Runs the chosen pipeline on the patch matrix and declares a patch
    salient when its score exceeds ``threshold`` times the maximum score.
    Returns the uint8 mask over the covered region and the sorted indices
    of the declared patches (row-major over the patch grid), the patches
    the mask lights.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold is a fraction of the maximum score")
    if mode not in ("acos", "sacos"):
        raise ValueError("mode must be acos or sacos")
    grid = patch_matrix(image)
    est, _ = detect(mode, grid.matrix, cfg)
    scores = est.scores.copy()
    scale = float(np.max(np.linalg.norm(grid.matrix, axis=0)))
    scores[scores <= SCORE_FLOOR * scale] = 0.0
    declared = np.nonzero(scores > threshold * scores.max())[0]
    return patch_mask_image(grid, declared), declared


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
    """Write a uint8 array as binary PGM (P5, maxval 255)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError("expected a 2-D image")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(image.tobytes())
