import numpy as np
import pytest

from sketchout import io
from sketchout.imaging import read_pgm
from sketchout.synth import phase_grid

from conftest import write_csv


class TestMatrixCsv:
    def test_round_trip_at_fixed_precision(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=3))
        X = rng.standard_normal((7, 11)) * 30
        path = tmp_path / "m.csv"
        write_csv(path, X)
        back = io.read_matrix_csv(path)
        assert back.shape == X.shape
        assert np.max(np.abs(back - X)) < 5e-7
        # the bytes of finite real input: header, then "%.6f" values
        write_csv(path, np.array([[1.5, -0.0, 2e-7], [-3.25, 1e6, -4.0000004]]))
        assert path.read_bytes() == (b"2,3\n1.500000,-0.000000,0.000000\n"
                                     b"-3.250000,1000000.000000,-4.000000\n")

    def test_header_present(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, np.zeros((2, 3)))
        assert path.read_text().splitlines()[0] == "2,3"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError):
            io.read_matrix_csv(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,2\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError):
            io.read_matrix_csv(path)

    def test_byte_stability(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=4))
        X = rng.standard_normal((4, 6))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, X)
        write_csv(b, X.copy())
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def result():
    return phase_grid(
        mode="sacos", n1=16, n2=40, gamma=0.5, m=8, r_values=[1, 2], k_values=[2, 4],
        lambda_set=[0.4, 0.5], trials=2, seed=8,
    )


class TestPhaseOutputs:

    def test_csv_layout(self, tmp_path, result):
        path = tmp_path / "phase.csv"
        io.write_phase_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,k,lambda_best,success_rate,trials,sampling_rate"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[4] == "2"

    def test_pgm_heat_map(self, tmp_path, result):
        path = tmp_path / "phase.pgm"
        io.write_phase_pgm(path, result)
        img = read_pgm(path)
        assert img.shape == (2, 2)  # k rows, r columns
        assert img[0, 0] == int(round(255 * result.grid[(1, 2)]))

    def test_infeasible_cell_skipped_and_black(self, tmp_path):
        # r = 17 exceeds n1 = 16: the cell has no row and a black pixel
        res = phase_grid(
            mode="sacos", n1=16, n2=40, gamma=0.5, m=8, r_values=[1, 17], k_values=[2],
            lambda_set=[0.4], trials=1, seed=8,
        )
        assert (17, 2) not in res.grid and res.grid[(1, 2)] == 1.0
        csv, pgm = tmp_path / "phase.csv", tmp_path / "phase.pgm"
        io.write_phase_csv(csv, res)
        assert [line.split(",")[:2] for line in csv.read_text().splitlines()[1:]] == [["1", "2"]]
        io.write_phase_pgm(pgm, res)
        assert read_pgm(pgm).tolist() == [[255, 0]]

    def test_outputs_byte_stable(self, tmp_path, result):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_phase_csv(a, result)
        io.write_phase_csv(b, result)
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"m": 10, "gamma": 0.2}')
        assert io.load_config(path) == {"m": 10, "gamma": 0.2}

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            io.load_config(path)
