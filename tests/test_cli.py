import json
import warnings

import numpy as np
import pytest

from sketchout import solver
from sketchout.cli import main
from sketchout.imaging import read_pgm, write_pgm
from sketchout.synth import bernoulli_mask, generate_instance

from conftest import write_csv
from saliency_demo import planted_image


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBudgetCommand:
    def test_reference_output(self, capsys):
        code, out, _ = run(
            capsys, "budget", "--n2", "1000",
            "--r", "5", "--k", "10", "--delta", "0.1",
        )
        assert code == 0
        assert "m_min     = 2711" in out
        assert "p_min     = 15752" in out
        assert "k_max     = 0" in out
        assert "far smaller m and p" in out

    def test_infeasible_gamma_flagged(self, capsys):
        code, out, _ = run(
            capsys, "budget", "--n2", "10000", "--n-low", "10000",
            "--r", "100", "--k", "10", "--delta", "0.1", "--mu-l", "5.0",
        )
        assert code == 0
        assert "INFEASIBLE" in out

    @pytest.mark.parametrize("extra, field", [
        (["--k", "0"], "k"), (["--k", "-1"], "k"), (["--k", "2000"], "k"),
        (["--k", "10", "--n-low", "5000"], "n_L"), (["--k", "10", "--mu-l", "nan"], "mu_L"),
    ], ids=["no-outliers", "negative-k", "k-above-n2", "n-low-above-n2", "nan-mu-l"])
    def test_invalid_input_prints_nothing(self, capsys, extra, field):
        # every value is checked before the first line is printed and
        # before any budget is evaluated, so no warning is raised either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "budget", "--n2", "1000", "--r", "5", *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: %s must" % field)
        assert "RuntimeWarning" not in err

    def test_n1_is_unknown_argument(self, capsys):
        # no budget formula depends on the row count
        with pytest.raises(SystemExit) as exc:
            main(["budget", "--n1", "100", "--n2", "1000", "--r", "5", "--k", "10"])
        assert exc.value.code == 2
        assert "--n1" in capsys.readouterr().err


class TestDetectCommand:
    def test_regression_fixture(self, tmp_path, capsys):
        # stored instance at the reference white-region configuration
        inst = generate_instance(100, 1000, 5, 10, seed=20260811)
        path = tmp_path / "m.csv"
        write_csv(path, inst.M)
        code, out, _ = run(
            capsys, "detect", str(path), "--mode", "acos", "--gamma", "0.2",
            "--m", "30", "--p", "300", "--lam", "0.4", "--seed", "7",
        )
        assert code == 0
        declared = [int(t) for t in out.splitlines()[0].split(":")[1].split(",")]
        assert declared == list(inst.true_support)
        assert "sampling_rate:" in out

    def test_sacos_missing_with_mask(self, tmp_path, capsys):
        inst = generate_instance(60, 250, 3, 12, seed=700)
        mask = bernoulli_mask(60, 250, 0.7, seed=800)
        mpath, kpath = tmp_path / "m.csv", tmp_path / "mask.csv"
        write_csv(mpath, np.where(mask, inst.M, 0.0))
        write_csv(kpath, mask.astype(float))
        code, out, _ = run(
            capsys, "detect", str(mpath), "--mode", "sacos_missing",
            "--mask", str(kpath), "--gamma", "0.3", "--m", "25",
            "--lam", "0.4", "--seed", "90",
        )
        assert code == 0
        declared = [int(t) for t in out.splitlines()[0].split(":")[1].split(",")]
        assert declared == list(inst.true_support)

    def test_missing_mask_is_invalid_input(self, tmp_path, capsys):
        inst = generate_instance(20, 50, 2, 3, seed=1)
        path = tmp_path / "m.csv"
        write_csv(path, inst.M)
        code, _, err = run(
            capsys, "detect", str(path), "--mode", "sacos_missing", "--m", "10"
        )
        assert code == 2
        assert "mask" in err

    @pytest.mark.parametrize("mode", ["acos", "sacos"])
    def test_mask_outside_missing_mode_is_invalid_input(self, tmp_path, capsys, mode):
        mpath, kpath = tmp_path / "m.csv", tmp_path / "mask.csv"
        write_csv(mpath, generate_instance(30, 150, 2, 4, seed=1).M)
        write_csv(kpath, np.ones((2, 2)))
        code, out, err = run(
            capsys, "detect", str(mpath), "--mode", mode, "--mask", str(kpath),
            "--m", "10", "--p", "40", "--lam", "0.4",
        )
        assert code == 2 and out == ""
        assert "no other mode reads one" in err

    @pytest.mark.parametrize("bad", [np.nan, 2.0, 0.7, -1.0], ids=["nan", "two", "fraction", "negative"])
    def test_mask_entry_other_than_0_or_1_is_invalid_input(self, tmp_path, capsys, bad):
        mask = bernoulli_mask(30, 150, 0.7, seed=2)
        mpath, kpath = tmp_path / "m.csv", tmp_path / "mask.csv"
        write_csv(mpath, np.where(mask, generate_instance(30, 150, 2, 4, seed=1).M, 0.0))
        mask = mask.astype(float)
        mask[7, 40] = bad
        write_csv(kpath, mask)
        code, out, err = run(
            capsys, "detect", str(mpath), "--mode", "sacos_missing", "--mask", str(kpath),
            "--m", "20", "--gamma", "0.4", "--lam", "0.4", "--seed", "3",
        )
        assert code == 2 and out == ""
        assert "mask entries must be exactly 0 or 1" in err

    def test_nonfinite_entry_is_invalid_input(self, tmp_path, capsys):
        M = generate_instance(20, 50, 2, 3, seed=1).M
        M[4, 11] = np.nan
        path = tmp_path / "m.csv"
        write_csv(path, M)
        code, out, err = run(
            capsys, "detect", str(path), "--mode", "acos", "--gamma", "0.5",
            "--m", "10", "--p", "25", "--lam", "0.4",
        )
        assert code == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_nonfinite_weight_is_invalid_input(self, tmp_path, capsys, lam):
        path = tmp_path / "m.csv"
        write_csv(path, generate_instance(20, 60, 2, 4, seed=1).M)
        code, out, err = run(
            capsys, "detect", str(path), "--mode", "sacos", "--m", "10", "--gamma", "0.5",
            "--lam", lam,
        )
        assert code == 2 and out == ""
        assert err == "error: separation weights must be positive and finite, got %s\n" % lam

    def test_energy_is_unknown_argument(self, capsys):
        # the basis dimension is read from the spectrum, not set by a flag
        with pytest.raises(SystemExit) as exc:
            main(["detect", "m.csv", "--m", "10", "--energy", "1.0"])
        assert exc.value.code == 2
        assert "--energy" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "saliency"])
    def test_k_ub_is_unknown_argument(self, capsys, command):
        # the separation weight is set by --lam alone
        files = ["m.csv"] if command == "detect" else ["in.pgm", "out.pgm"]
        with pytest.raises(SystemExit) as exc:
            main([command, *files, "--m", "10", "--k-ub", "5"])
        assert exc.value.code == 2
        assert "--k-ub" in capsys.readouterr().err

    def test_nonexistent_file(self, capsys):
        code, _, err = run(capsys, "detect", "/no/such/file.csv", "--m", "5")
        assert code == 2

    def _sparse_sample(self, tmp_path, capsys, seed):
        # 8 columns at gamma 0.05: the column sample is often empty
        path = tmp_path / "m.csv"
        write_csv(path, generate_instance(20, 8, 1, 1, seed=0).M)
        return run(
            capsys, "detect", str(path), "--mode", "sacos", "--m", "5",
            "--gamma", "0.05", "--seed", str(seed),
        )

    def test_empty_column_sample_is_solver_failure(self, tmp_path, capsys):
        # seed 3: the first draw and the retry are both empty
        code, out, err = self._sparse_sample(tmp_path, capsys, 3)
        assert code == 3 and out == ""
        assert "solver failure: column sample empty after retry" in err

    def test_solver_divergence_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "RHO_GROWTH", 0.5)
        path = tmp_path / "m.csv"
        write_csv(path, generate_instance(20, 60, 2, 4, seed=1).M)
        code, out, err = run(
            capsys, "detect", str(path), "--mode", "sacos", "--m", "10",
            "--gamma", "1.0", "--lam", "0.4",
        )
        assert code == 3 and out == ""
        assert "solver failure: residual increased for 10 consecutive iterations" in err

    def test_unobserved_sample_is_solver_failure(self, tmp_path, capsys):
        # the mask observes row 0 alone, which seed 1's row sample leaves out
        inst = generate_instance(40, 200, 2, 5, seed=1)
        mask = np.zeros((40, 200))
        mask[0] = 1.0
        mpath, kpath = tmp_path / "m.csv", tmp_path / "mask.csv"
        write_csv(mpath, inst.M)
        write_csv(kpath, mask)
        code, out, err = run(
            capsys, "detect", str(mpath), "--mode", "sacos_missing", "--mask", str(kpath),
            "--gamma", "0.4", "--m", "10", "--lam", "0.4", "--seed", "1",
        )
        assert code == 3 and out == ""
        assert "solver failure: the mask observes no entry of the sampled rows" in err

    def test_empty_column_sample_is_redrawn_once(self, tmp_path, capsys):
        # seed 1: only the first draw is empty, and the retry samples one
        # column, so the declared set is not checked
        code, out, _ = self._sparse_sample(tmp_path, capsys, 1)
        assert code == 0
        assert "sampling_rate:" in out


class TestSaliencyCommand:
    def test_planted_image(self, tmp_path, capsys):
        img = planted_image()
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, img)
        code, out, _ = run(
            capsys, "saliency", str(src), str(dst), "--mode", "sacos",
            "--gamma", "0.6", "--m", "20", "--seed", "3",
        )
        assert code == 0
        mask = read_pgm(dst)
        assert mask.shape == (50, 100)
        lit = {i for i in range(50) if mask[(i // 10) * 10, (i % 10) * 10] == 255}
        assert lit == {3, 11, 22, 33, 44}
        assert "salient patches: 5 / 50" in out

    def test_uniform_image_black_mask(self, tmp_path, capsys):
        src, dst = tmp_path / "u.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.full((40, 60), 99, dtype=np.uint8))
        code, out, _ = run(
            capsys, "saliency", str(src), str(dst), "--mode", "sacos",
            "--gamma", "0.6", "--m", "12", "--lam", "0.4", "--seed", "2",
        )
        assert code == 0
        assert not read_pgm(dst).any()
        assert "salient patches: 0" in out

    def test_package_warning_reported_once_without_source_line(self, tmp_path, capsys):
        # at the default gamma the learned subspace of the planted image is
        # empty, and every call of subspace_basis on it warns
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, planted_image())
        code, out, err = run(capsys, "saliency", str(src), str(dst), "--m", "20")
        assert code == 0
        assert "salient patches: 0 / 50" in out
        assert err.splitlines() == ["warning: zero matrix has an empty column space"]
        assert "RuntimeWarning" not in err


class TestPhaseCommand:
    def test_smoke_and_determinism(self, tmp_path, capsys):
        cfg = {
            "mode": "sacos", "n1": 16, "n2": 40, "gamma": 0.5, "m": 8,
            "r_values": [1, 2], "k_values": [2, 4], "lambda_set": [0.4, 0.5],
            "trials": 1, "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv1, pgm1 = tmp_path / "a.csv", tmp_path / "a.pgm"
        code, out, _ = run(capsys, "phase", str(cfg_path), "--out-csv", str(csv1), "--out-pgm", str(pgm1))
        assert code == 0
        assert csv1.exists() and pgm1.exists()
        assert "cells: 4" in out
        csv2, pgm2 = tmp_path / "b.csv", tmp_path / "b.pgm"
        code, _, _ = run(capsys, "phase", str(cfg_path), "--out-csv", str(csv2), "--out-pgm", str(pgm2))
        assert code == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        assert pgm1.read_bytes() == pgm2.read_bytes()

    def test_bad_config_is_invalid_input(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"mode": "sacos"}')
        code, _, err = run(capsys, "phase", str(cfg_path), "--out-csv", "x", "--out-pgm", "y")
        assert code == 2

    @staticmethod
    def rejected(tmp_path, capsys, **keys):
        """Run a small sacos config with ``keys`` set and return stderr,
        checking the run exits 2 with empty stdout and no output file."""
        cfg = {
            "mode": "sacos", "n1": 16, "n2": 40, "gamma": 0.5, "m": 8,
            "r_values": [1], "k_values": [2], "lambda_set": [0.4], "trials": 1,
        }
        cfg.update(keys)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv, pgm = tmp_path / "a.csv", tmp_path / "a.pgm"
        code, out, err = run(capsys, "phase", str(cfg_path), "--out-csv", str(csv), "--out-pgm", str(pgm))
        assert code == 2 and out == ""
        assert not csv.exists() and not pgm.exists()
        return err

    @pytest.mark.parametrize(
        "keys", [{"n1": 0}, {"k_values": [40, 50]}], ids=["no-rows", "k-at-or-above-n2"]
    )
    def test_grid_without_feasible_cell_rejected(self, tmp_path, capsys, keys):
        assert "no feasible (r, k) cell" in self.rejected(tmp_path, capsys, **keys)

    def test_unknown_key_rejected_before_any_trial(self, tmp_path, capsys):
        # a typo and a removed option ("energy") alike
        for key in ("trails", "energy"):
            assert "'%s'" % key in self.rejected(tmp_path, capsys, **{key: 1})

    @pytest.mark.parametrize("weights", [[None], ["oops"], [0.4, -1.0]], ids=["null", "text", "negative"])
    def test_bad_weight_rejected_before_any_trial(self, tmp_path, capsys, weights):
        assert "separation weights" in self.rejected(tmp_path, capsys, lambda_set=weights)

    @pytest.mark.parametrize(
        "key, values", [("r_values", [1, 1]), ("k_values", [2, 4, 2]), ("lambda_set", [0.4, 0.5, 0.4])],
        ids=["r_values", "k_values", "lambda_set"],
    )
    def test_repeated_grid_value_rejected_before_any_trial(self, tmp_path, capsys, key, values):
        assert "%s repeats a value" % key in self.rejected(tmp_path, capsys, **{key: values})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("trials", "2", "trials must be an integer"),
            ("r_values", 5, "r_values must be a list"),
            ("m", 8.5, "m must be an integer"),
            ("gamma", "0.5", "gamma must be a number"),
            ("normalize", "no", "normalize must be true or false"),
            ("noise_sigma", -1, "sigma must be nonnegative"),
            ("noise_sigma", float("nan"), "sigma must be nonnegative and finite"),
            ("p_omega", 0.7, "mode sacos_missing needs an observation mask"),
        ],
        ids=["trials", "r_values", "m", "gamma", "normalize", "noise_sigma", "noise_sigma-nan",
             "p_omega"],
    )
    def test_malformed_value_rejected_before_any_trial(self, tmp_path, capsys, key, value, message):
        assert message in self.rejected(tmp_path, capsys, **{key: value})
