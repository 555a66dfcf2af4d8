from types import SimpleNamespace

import numpy as np
import pytest

from sketchout import imaging
from sketchout.imaging import patch_matrix, read_pgm, saliency_map, write_pgm
from sketchout.pipeline import AcosConfig, detect

from saliency_demo import planted_image


def lit_patches(shape, declared, grid_cols):
    """The expected mask: 10 x 10 blocks of 255 at the declared patches."""
    mask = np.zeros(shape, dtype=np.uint8)
    for idx in declared:
        i, j = divmod(idx, grid_cols)
        mask[10 * i : 10 * (i + 1), 10 * j : 10 * (j + 1)] = 255
    return mask


class TestPatchMatrix:
    def test_standard_image_shape(self):
        assert patch_matrix(np.zeros((300, 400), dtype=np.uint8)).shape == (100, 1200)

    def test_partial_patches_dropped(self):
        assert patch_matrix(np.zeros((25, 25), dtype=np.uint8)).shape == (100, 4)

    def test_column_stacking_order(self):
        img = np.arange(100, dtype=np.uint8).reshape(10, 10)
        column = patch_matrix(img)[:, 0] * 255
        assert np.allclose(column[:3], [0, 10, 20]) and np.allclose(column[10:12], [1, 11])
        assert np.allclose(column, img.flatten(order="F"))

    def test_round_trip_exact(self):
        # column j holds patch (j // 5, j % 5) of the 3 x 5 patch grid,
        # column-stacked; together the columns hold every covered pixel
        rng = np.random.Generator(np.random.Philox(key=1))
        img = rng.random((37, 53))
        matrix = patch_matrix(img)
        assert matrix.shape == (100, 15)
        for j in range(15):
            i, k = divmod(j, 5)
            block = img[10 * i : 10 * (i + 1), 10 * k : 10 * (k + 1)]
            assert np.array_equal(matrix[:, j], block.flatten(order="F"))

    def test_pixel_scaling_to_unit(self):
        img = np.full((10, 10), 255, dtype=np.uint8)
        assert patch_matrix(img).max() == 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            patch_matrix(np.zeros((5, 20)))


class TestMaskImage:
    """The mask ``saliency_map`` draws for a given declared set."""

    @staticmethod
    def declaring(monkeypatch, declared):
        """Make saliency_map's detection declare ``declared``, whatever the image."""
        result = SimpleNamespace(declared=np.array(declared, dtype=int))
        monkeypatch.setattr(imaging, "detect", lambda mode, M, cfg: (result, 0.0))

    def test_dimensions_follow_floor_rule(self, monkeypatch):
        self.declaring(monkeypatch, [0])
        mask, _ = saliency_map(np.zeros((37, 53)), "sacos", AcosConfig(gamma=0.5, m=5))
        assert mask.shape == (30, 50)
        assert np.array_equal(mask, lit_patches((30, 50), [0], 5))

    def test_blocks_lit(self, monkeypatch):
        self.declaring(monkeypatch, [4])  # patch row 1, col 1
        mask, declared = saliency_map(np.zeros((20, 30)), "sacos", AcosConfig(gamma=0.5, m=5))
        assert declared.tolist() == [4]
        assert mask[10:, 10:20].min() == 255
        assert mask.sum() == 255 * 100


class TestSaliencyMap:
    def test_planted_patches_found(self):
        img = planted_image()
        cfg = AcosConfig(gamma=0.6, m=20, seed=3)
        mask, declared = saliency_map(img, "sacos", cfg)
        assert declared.tolist() == [3, 11, 22, 33, 44]
        assert mask.shape == (50, 100)
        assert np.array_equal(mask, lit_patches((50, 100), declared, 10))

    def test_uniform_image_empty_mask(self):
        img = np.full((40, 60), 77, dtype=np.uint8)
        cfg = AcosConfig(gamma=0.6, m=12, lam=0.4, seed=2)
        mask, declared = saliency_map(img, "sacos", cfg)
        assert not mask.any()
        assert declared.size == 0

    @pytest.mark.parametrize("mode, cfg", [
        ("acos", AcosConfig(gamma=0.6, m=10, p=50, seed=3)),
        ("sacos", AcosConfig(gamma=0.6, m=20, seed=3)),
    ], ids=["acos", "sacos"])
    def test_declares_what_detection_declares(self, mode, cfg):
        img = planted_image()
        est, _ = detect(mode, patch_matrix(img), cfg)
        _, declared = saliency_map(img, mode, cfg)
        assert declared.tolist() == est.declared.tolist()

    def test_bad_mode(self):
        img = planted_image()
        cfg = AcosConfig(gamma=0.5, m=10)
        with pytest.raises(ValueError):
            saliency_map(img, "other", cfg)
        with pytest.raises(ValueError):
            saliency_map(img, "sacos_missing", cfg)


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=2))
        img = rng.integers(0, 256, size=(13, 29)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)
        write_pgm(path, img.astype(float))
        assert np.array_equal(read_pgm(path), img)

    @pytest.mark.parametrize("pixel", [300.0, -1.0, 2.7, 254.5])
    def test_rejects_pixel_a_byte_cannot_hold(self, tmp_path, pixel):
        # a uint8 cast would write 300 as 44, -1 as 255 and 2.7 as 2
        with pytest.raises(ValueError, match="image"):
            write_pgm(tmp_path / "img.pgm", np.array([[pixel, 0.0], [1.0, 255.0]]))

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        body = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + body)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img.tobytes() == body

    def test_rejects_maxval_other_than_255(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n15\n" + bytes(4))
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)

    def test_rejects_ascii_format(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            read_pgm(path)
