import numpy as np
import pytest

from sketchout.imaging import (
    PatchGrid,
    patch_matrix,
    patch_mask_image,
    read_pgm,
    saliency_map,
    write_pgm,
)
from sketchout.pipeline import AcosConfig


def planted_image(height=50, width=100, patch=10, hot=(3, 11, 22, 33, 44), seed=5):
    """Constant background with a few high-variance noise patches."""
    img = np.full((height, width), 128, dtype=np.uint8)
    rng = np.random.Generator(np.random.Philox(key=seed))
    gc = width // patch
    for idx in hot:
        i, j = divmod(idx, gc)
        block = rng.integers(0, 256, size=(patch, patch))
        img[i * patch : (i + 1) * patch, j * patch : (j + 1) * patch] = block
    return img


class TestPatchMatrix:
    def test_standard_image_shape(self):
        grid = patch_matrix(np.zeros((300, 400), dtype=np.uint8), 10)
        assert grid.matrix.shape == (100, 1200)
        assert grid.grid_rows == 30 and grid.grid_cols == 40

    def test_partial_patches_dropped(self):
        grid = patch_matrix(np.zeros((25, 25), dtype=np.uint8), 10)
        assert grid.matrix.shape == (100, 4)

    def test_column_stacking_order(self):
        img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        grid = patch_matrix(img, 2)
        assert np.allclose(grid.matrix[:, 0] * 255, [1, 3, 2, 4])

    def test_round_trip_exact(self):
        # column j holds patch (j // 5, j % 5) of the 3 x 5 patch grid,
        # column-stacked; together the columns hold every covered pixel
        rng = np.random.Generator(np.random.Philox(key=1))
        img = rng.random((37, 53))
        grid = patch_matrix(img, 10)
        assert grid.matrix.shape == (100, 15)
        for j in range(15):
            i, k = divmod(j, 5)
            block = img[10 * i : 10 * (i + 1), 10 * k : 10 * (k + 1)]
            assert np.array_equal(grid.matrix[:, j], block.flatten(order="F"))

    def test_pixel_scaling_to_unit(self):
        img = np.full((10, 10), 255, dtype=np.uint8)
        assert patch_matrix(img, 10).matrix.max() == 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            patch_matrix(np.zeros((5, 20)), 10)


class TestMaskImage:
    def test_dimensions_follow_floor_rule(self):
        grid = patch_matrix(np.zeros((37, 53)), 10)
        mask = patch_mask_image(grid, [0])
        assert mask.shape == (30, 50)

    def test_blocks_lit(self):
        grid = patch_matrix(np.zeros((20, 30)), 10)
        mask = patch_mask_image(grid, [4])  # patch row 1, col 1
        assert mask[10:, 10:20].min() == 255
        assert mask.sum() == 255 * 100


class TestSaliencyMap:
    def test_planted_patches_found(self):
        img = planted_image()
        cfg = AcosConfig(gamma=0.6, m=20, lam=None, k_ub=5, seed=3)
        mask, declared = saliency_map(img, "sacos", cfg, threshold=0.5)
        assert declared.tolist() == [3, 11, 22, 33, 44]
        assert mask.shape == (50, 100)
        assert np.array_equal(mask, patch_mask_image(patch_matrix(img), declared))

    def test_uniform_image_empty_mask(self):
        img = np.full((40, 60), 77, dtype=np.uint8)
        cfg = AcosConfig(gamma=0.6, m=12, lam=0.4, seed=2)
        mask, declared = saliency_map(img, "sacos", cfg, threshold=0.25)
        assert not mask.any()
        assert declared.size == 0

    def test_bad_mode_and_threshold(self):
        img = planted_image()
        cfg = AcosConfig(gamma=0.5, m=10)
        with pytest.raises(ValueError):
            saliency_map(img, "other", cfg)
        with pytest.raises(ValueError):
            saliency_map(img, "sacos", cfg, threshold=0.0)


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=2))
        img = rng.integers(0, 256, size=(13, 29)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        body = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + body)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img.tobytes() == body

    def test_rejects_ascii_format(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            read_pgm(path)
