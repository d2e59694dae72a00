"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.sparse import read_matrix_market


@pytest.fixture()
def mtx(tmp_path):
    path = tmp_path / "m.mtx"
    rc = main(["generate", "--kind", "grid2d_5pt", "--size", "16",
               "--out", str(path)])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_valid_matrix(self, mtx):
        A = read_matrix_market(mtx)
        assert A.shape == (256, 256)

    def test_3d_generator(self, tmp_path, capsys):
        out = tmp_path / "b.mtx"
        main(["generate", "--kind", "grid3d_7pt", "--size", "5", "--out",
              str(out)])
        assert "lattice 5x5x5" in capsys.readouterr().out
        assert read_matrix_market(out).shape == (125, 125)

    def test_anisotropic_size(self, tmp_path):
        out = tmp_path / "c.mtx"
        main(["generate", "--kind", "thin_slab_7pt", "--size", "8,8,2",
              "--out", str(out)])
        assert read_matrix_market(out).shape == (128, 128)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--kind", "nope", "--size", "4", "--out",
                  str(tmp_path / "x.mtx")])


class TestSolve:
    def test_lu_solve(self, mtx, capsys):
        rc = main(["solve", str(mtx), "--grid", "16,16", "--px", "2",
                   "--py", "2", "--pz", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "relative residual" in out
        assert "modeled factor time" in out

    def test_cholesky_solve(self, mtx, capsys):
        rc = main(["solve", str(mtx), "--grid", "16,16", "--pz", "2",
                   "--px", "2", "--py", "2", "--cholesky"])
        assert rc == 0
        assert "Cholesky" in capsys.readouterr().out

    def test_without_geometry(self, mtx):
        rc = main(["solve", str(mtx), "--px", "2", "--py", "2"])
        assert rc == 0

    def test_solution_written(self, mtx, tmp_path):
        xout = tmp_path / "x.txt"
        main(["solve", str(mtx), "--grid", "16,16", "--x-out", str(xout)])
        x = np.loadtxt(xout)
        A = read_matrix_market(mtx)
        assert np.linalg.norm(A @ x - np.ones(256)) < 1e-6

    def test_bad_grid_spec(self, mtx):
        with pytest.raises(SystemExit, match="does not match"):
            main(["solve", str(mtx), "--grid", "7,7"])

    @pytest.mark.parametrize("flag,field", [("--workers", "n_workers"),
                                            ("--checkpoint-every",
                                             "checkpoint_every")])
    def test_negative_count_is_a_usage_error(self, mtx, capsys, flag, field):
        """A value ``FactorOptions`` refuses exits 2 with one argparse
        error line, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(mtx), flag, "-1"])
        assert exc.value.code == 2
        (line,) = [s for s in capsys.readouterr().err.splitlines()
                   if "error:" in s]
        assert line.startswith(f"repro solve: error: {field} must be "
                               "non-negative")


class TestSweep:
    def test_table_printed(self, mtx, capsys):
        rc = main(["sweep", str(mtx), "--grid", "16,16", "--P", "12",
                   "--pz", "1,2,4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out
        assert "2x3x2" in out or "1x6x2" in out or "x2" in out

    def test_no_valid_pz(self, mtx):
        with pytest.raises(SystemExit, match="divides"):
            main(["sweep", str(mtx), "--P", "9", "--pz", "2,4"])


class TestTune:
    def test_table_and_cache(self, mtx, tmp_path, capsys):
        cache = tmp_path / "tune.json"
        rc = main(["tune", str(mtx), "--grid", "16,16", "--P", "12",
                   "--leaf-size", "32", "--cache", str(cache)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "of 10 measured candidates (11 model-only)" in out
        assert "model-only" in out and "measured W/rank" in out
        assert cache.is_file() and "1 entries" in out

    def test_budget_flag_is_gone(self, mtx):
        with pytest.raises(SystemExit):
            main(["tune", str(mtx), "--budget", "6"])


class TestSolveAutoGrid:
    def test_grid_auto_adopts_the_tuned_shape(self, mtx, capsys):
        rc = main(["solve", str(mtx), "--grid", "auto", "--P", "8",
                   "--leaf-size", "32"])
        out = capsys.readouterr().out
        assert rc == 0
        line = next(s for s in out.splitlines() if s.startswith("auto grid"))
        shape = line.split()[2]             # "PxxPyxPz" of the chosen label
        assert f"grid {shape}  algorithm=LU" in out
        assert "relative residual" in out


class TestReport:
    def test_report_sections(self, capsys):
        rc = main(["report", "--scale", "tiny", "--only", "table3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table III" in out
        assert "Serena" in out

    def test_unknown_section(self):
        with pytest.raises(SystemExit, match="unknown sections"):
            main(["report", "--only", "fig99"])
