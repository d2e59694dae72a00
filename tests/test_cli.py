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

    @pytest.mark.parametrize("argv,error", [
        pytest.param(["solve", "--workers", "-1"],
                     "n_workers must be non-negative",
                     id="--workers-n_workers"),
        pytest.param(["solve", "--checkpoint-every", "-1"],
                     "checkpoint_every must be non-negative",
                     id="--checkpoint-every-checkpoint_every"),
        pytest.param(["solve", "--pz", "3"],
                     "argument --pz: value must be a power of two, got 3",
                     id="--pz-3"),
        pytest.param(["solve", "--px", "-1"],
                     "argument --px: value must be positive, got -1",
                     id="--px--1"),
        pytest.param(["solve", "--leaf-size", "0"],
                     "argument --leaf-size: value must be positive, got 0",
                     id="--leaf-size-0"),
        pytest.param(["solve", "--grid", "auto", "--P", "-4"],
                     "argument --P: value must be positive, got -4",
                     id="--P--4"),
        pytest.param(["tune", "--P", "0"],
                     "argument --P: value must be positive, got 0",
                     id="tune--P-0")])
    def test_negative_count_is_a_usage_error(self, mtx, capsys, argv, error):
        """A value ``FactorOptions`` or the grid refuses exits 2 with one
        argparse error line, not a traceback."""
        cmd, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(mtx), *flags])
        assert exc.value.code == 2
        (line,) = [s for s in capsys.readouterr().err.splitlines()
                   if "error:" in s]
        assert line.startswith(f"repro {cmd}: error: {error}")


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
        assert "of 6 measured candidates (4 model-only)" in out
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

    def test_grid_auto_scores_the_options_it_runs(self, tmp_path, capsys):
        """The tuner scores candidates under the run's own options: with
        ``--compact`` it picks the shape of least *compact* words (2x2x4,
        8,630 words on this circuit; dense scoring picks 1x1x16, whose
        compact words are 11,354.5)."""
        path = tmp_path / "circuit.mtx"
        main(["generate", "--kind", "circuit", "--size", "24",
              "--out", str(path)])
        rc = main(["solve", str(path), "--grid", "auto", "--P", "16",
                   "--leaf-size", "32", "--compact"])
        out = capsys.readouterr().out
        assert rc == 0
        line = next(s for s in out.splitlines() if s.startswith("auto grid"))
        assert line.split()[2] == "2x2x4"
        assert "grid 2x2x4  algorithm=LU" in out


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
