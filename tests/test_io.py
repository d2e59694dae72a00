"""Tests for Matrix-Market I/O and the real-matrix fixture pipeline.

The reader edge cases mirror what SuiteSparse files actually contain
(comments, blank lines, CRLF, gzip, pattern/symmetric storage) and what
corruption looks like (out-of-range indices, truncated entry lists) —
each pinned to a ValueError, never a silently wrong matrix.
"""

import gzip

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import (
    FIXTURES,
    FixtureUnavailable,
    fixture_names,
    fixtures,
    grid2d_5pt,
    load_fixture,
    read_matrix_market,
    write_matrix_market,
)


class TestRoundTrip:
    def test_general(self, tmp_path):
        A = sp.random(20, 20, density=0.2, format="csr", random_state=0)
        path = tmp_path / "a.mtx"
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert abs(A - B).max() < 1e-15

    def test_symmetric_storage(self, tmp_path):
        A, _ = grid2d_5pt(6)
        path = tmp_path / "sym.mtx"
        write_matrix_market(path, A, symmetry="symmetric")
        # Only the lower triangle is on disk...
        text = path.read_text()
        assert "symmetric" in text.splitlines()[0]
        # ...but reading restores the full matrix.
        B = read_matrix_market(path)
        assert abs(A - B).max() < 1e-15

    def test_symmetric_file_smaller(self, tmp_path):
        A, _ = grid2d_5pt(8)
        pg = tmp_path / "g.mtx"
        ps = tmp_path / "s.mtx"
        write_matrix_market(pg, A, symmetry="general")
        write_matrix_market(ps, A, symmetry="symmetric")
        assert ps.stat().st_size < pg.stat().st_size

    def test_values_precision(self, tmp_path):
        A = sp.csr_matrix(np.array([[np.pi, 0.0], [0.0, 1e-17]]))
        path = tmp_path / "p.mtx"
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert B[0, 0] == pytest.approx(np.pi, rel=1e-15)

    def test_pipeline_through_solver(self, tmp_path):
        """Full user path: write, read back, factor and solve."""
        from repro import SparseLU3D
        A, _ = grid2d_5pt(8)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, A, symmetry="symmetric")
        B = read_matrix_market(path)
        solver = SparseLU3D(B, px=1, py=1, leaf_size=16)
        solver.factorize()
        b = np.ones(B.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(B @ x - b) < 1e-10


class TestErrors:
    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("not a matrix market file\n1 1 0\n")
        with pytest.raises(ValueError, match="not a MatrixMarket"):
            read_matrix_market(p)

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "arr.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(ValueError, match="unsupported"):
            read_matrix_market(p)

    def test_unsupported_symmetry_write(self, tmp_path):
        with pytest.raises(ValueError, match="symmetry"):
            write_matrix_market(tmp_path / "x.mtx", sp.identity(2),
                                symmetry="hermitian")

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "% a comment line\n"
                     "2 2 1\n1 1 3.5\n")
        A = read_matrix_market(p)
        assert A[0, 0] == 3.5

    def test_pattern_field(self, tmp_path):
        p = tmp_path / "pat.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 2\n1 1\n2 1\n")
        A = read_matrix_market(p)
        assert A[0, 0] == 1.0 and A[1, 0] == 1.0


HEADER = "%%MatrixMarket matrix coordinate real general\n"


class TestReaderEdgeCases:
    """What real SuiteSparse files contain — and what corruption looks like."""

    def test_pattern_symmetric_expansion(self, tmp_path):
        """Pattern + symmetric: lower-triangle entries expand to both
        triangles with unit values, diagonal not doubled."""
        p = tmp_path / "ps.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                     "3 3 3\n1 1\n3 1\n3 3\n")
        A = read_matrix_market(p).toarray()
        expect = np.array([[1., 0., 1.], [0., 0., 0.], [1., 0., 1.]])
        assert np.array_equal(A, expect)

    def test_integer_field(self, tmp_path):
        p = tmp_path / "int.mtx"
        p.write_text("%%MatrixMarket matrix coordinate integer general\n"
                     "2 2 2\n1 1 7\n2 2 -3\n")
        A = read_matrix_market(p)
        assert A[0, 0] == 7.0 and A[1, 1] == -3.0

    def test_blank_lines_and_mid_file_comments(self, tmp_path):
        p = tmp_path / "b.mtx"
        p.write_text(HEADER + "\n% pre-size comment\n\n2 2 2\n"
                     "1 1 1.0\n\n% mid-data comment\n2 2 4.0\n\n")
        A = read_matrix_market(p)
        assert A[0, 0] == 1.0 and A[1, 1] == 4.0

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "crlf.mtx"
        p.write_bytes((HEADER + "2 2 1\r\n1 2 5.0\r\n")
                      .replace("\n", "\r\n", 1).encode())
        A = read_matrix_market(p)
        assert A[0, 1] == 5.0

    def test_gzip_path(self, tmp_path):
        A, _ = grid2d_5pt(5)
        plain = tmp_path / "g.mtx"
        write_matrix_market(plain, A)
        gz = tmp_path / "g.mtx.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        B = read_matrix_market(gz)
        assert abs(A - B).max() < 1e-15

    @pytest.mark.parametrize("entry", ["0 1 1.0", "3 1 1.0", "1 0 1.0",
                                       "1 3 1.0"])
    def test_out_of_range_indices(self, tmp_path, entry):
        p = tmp_path / "oob.mtx"
        p.write_text(HEADER + f"2 2 1\n{entry}\n")
        with pytest.raises(ValueError, match="outside 1-based range"):
            read_matrix_market(p)

    def test_truncated_entries(self, tmp_path):
        p = tmp_path / "trunc.mtx"
        p.write_text(HEADER + "2 2 3\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(ValueError, match="expected 3 entries, found 2"):
            read_matrix_market(p)

    def test_excess_entries(self, tmp_path):
        p = tmp_path / "xs.mtx"
        p.write_text(HEADER + "2 2 1\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(ValueError, match="more than 1 entries"):
            read_matrix_market(p)

    def test_missing_size_line(self, tmp_path):
        p = tmp_path / "nosize.mtx"
        p.write_text(HEADER + "% only comments\n")
        with pytest.raises(ValueError, match="missing size line"):
            read_matrix_market(p)

    def test_malformed_size_line(self, tmp_path):
        p = tmp_path / "badsize.mtx"
        p.write_text(HEADER + "2 2\n")
        with pytest.raises(ValueError, match="malformed size line"):
            read_matrix_market(p)

    def test_malformed_entry(self, tmp_path):
        p = tmp_path / "bent.mtx"
        p.write_text(HEADER + "2 2 1\n1 1\n")
        with pytest.raises(ValueError, match="malformed entry"):
            read_matrix_market(p)

    @pytest.mark.parametrize("variant", ["complex general", "real skew-symmetric",
                                         "real hermitian"])
    def test_unsupported_field_or_symmetry(self, tmp_path, variant):
        p = tmp_path / "un.mtx"
        p.write_text(f"%%MatrixMarket matrix coordinate {variant}\n1 1 0\n")
        with pytest.raises(ValueError, match="unsupported"):
            read_matrix_market(p)

    def test_case_insensitive_qualifiers(self, tmp_path):
        p = tmp_path / "case.mtx"
        p.write_text("%%MatrixMarket matrix coordinate Real General\n"
                     "1 1 1\n1 1 2.0\n")
        assert read_matrix_market(p)[0, 0] == 2.0

    def test_writer_comments_round_trip(self, tmp_path):
        """Provenance comments are emitted after the header and the file
        still reads back identically."""
        A, _ = grid2d_5pt(4)
        p = tmp_path / "prov.mtx"
        write_matrix_market(p, A, comments=["source: test", "n=16"])
        lines = p.read_text().splitlines()
        assert lines[1] == "% source: test" and lines[2] == "% n=16"
        assert abs(A - read_matrix_market(p)).max() < 1e-15


class TestFixtures:
    """The vendored fixture pipeline."""

    def test_registry_names(self):
        assert fixture_names() == sorted(FIXTURES)
        assert "arrowhead_200" in fixture_names()

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown fixture"):
            load_fixture("no_such_matrix")

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_vendored_load(self, name):
        A, fx = load_fixture(name)
        assert A.shape == (fx.n, fx.n)
        assert A.nnz > 0
        assert fx.description

    def test_vendored_solve_end_to_end(self):
        """A fixture matrix through the full solver path."""
        from repro import SparseLU3D
        A, _ = load_fixture("arrowhead_200")
        solver = SparseLU3D(A, px=1, py=1, leaf_size=32)
        solver.factorize()
        b = np.ones(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_missing_vendored_file_is_unavailable(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(fixtures, "fixtures_dir", lambda: tmp_path)
        with pytest.raises(FixtureUnavailable, match="missing"):
            load_fixture("arrowhead_200")

    def test_shape_validated_against_registry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fixtures, "fixtures_dir", lambda: tmp_path)
        A, _ = grid2d_5pt(11)  # n=121 != registered 200
        write_matrix_market(tmp_path / "arrowhead_200.mtx", A)
        with pytest.raises(FixtureUnavailable, match="expected 200x200"):
            load_fixture("arrowhead_200")
        write_matrix_market(tmp_path / "arrowhead_200.mtx",
                            sp.identity(200, format="csr"))
        B, fx = load_fixture("arrowhead_200")
        assert B.shape == (200, 200) and fx.workload == "adversarial"
