"""Minimal Matrix-Market coordinate I/O.

scipy provides ``mmread``/``mmwrite``; we implement a small reader/writer
ourselves so the repository is self-contained for its on-disk exchange format
(the paper's test matrices ship as Matrix Market files), and so tests can
round-trip matrices without touching scipy internals.

Only the ``matrix coordinate real general/symmetric`` and
``pattern`` variants are supported — the formats the SuiteSparse collection
actually uses for these matrices. The reader is deliberately liberal about
the things real SuiteSparse downloads contain — ``%`` comment lines, blank
lines, CRLF line endings, gzip compression (``.gz`` suffix) — and strict
about the things that corrupt a matrix silently: out-of-range 1-based
indices, truncated entry lists, and unsupported field/symmetry variants
all raise ``ValueError``.
"""

from __future__ import annotations

import gzip
import os

import numpy as np
import scipy.sparse as sp

__all__ = ["read_matrix_market", "write_matrix_market"]

_HEADER = "%%MatrixMarket matrix coordinate {field} {symmetry}\n"


def write_matrix_market(path: str | os.PathLike, A: sp.spmatrix,
                        symmetry: str = "general",
                        comments: list[str] | None = None) -> None:
    """Write ``A`` in Matrix Market coordinate format (1-based indices).

    With ``symmetry='symmetric'`` only the lower triangle is stored; the
    caller is responsible for ``A`` actually being symmetric. ``comments``
    are emitted as ``%`` lines between header and size line — the place
    SuiteSparse files carry provenance.
    """
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    A = sp.coo_matrix(A)
    if symmetry == "symmetric":
        keep = A.row >= A.col
        A = sp.coo_matrix((A.data[keep], (A.row[keep], A.col[keep])), shape=A.shape)
    with open(path, "w") as f:
        f.write(_HEADER.format(field="real", symmetry=symmetry))
        for c in comments or ():
            f.write(f"% {c}\n")
        f.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for r, c, v in zip(A.row, A.col, A.data):
            f.write(f"{r + 1} {c + 1} {v:.17g}\n")


#: One entry line as ``np.loadtxt`` reads it; ``pattern`` files carry no value.
_ENTRY = [("row", np.int64), ("col", np.int64), ("val", np.float64)]


def _first_malformed(entries: list[str], width: int) -> str | None:
    """The first entry line with too few or unparseable tokens (error path)."""
    for line in entries:
        parts = line.split()
        try:
            int(parts[0]), int(parts[1]), float(parts[width - 1])
        except (ValueError, IndexError):
            return line


def read_matrix_market(path: str | os.PathLike) -> sp.csr_matrix:
    """Read a Matrix Market coordinate file written by this module or others.

    Accepts ``general``/``symmetric`` symmetry and ``real``/``integer``/
    ``pattern`` fields (pattern entries read as 1.0, symmetric storage is
    expanded to the full pattern). ``.gz`` paths are decompressed on the
    fly — the format SuiteSparse downloads arrive in. The entry block is
    parsed and range-checked as arrays (one ``np.loadtxt`` over the
    filtered lines), not line by line.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as f:
        header = f.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: not a MatrixMarket file")
        tokens = header.strip().split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise ValueError(f"{path}: unsupported MatrixMarket header: {header!r}")
        field, symmetry = tokens[3].lower(), tokens[4].lower()
        if field not in ("real", "integer", "pattern"):
            raise ValueError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")
        # Stripped, non-empty, non-comment lines (CRLF tolerant).
        lines = [s for s in map(str.strip, f) if s and s[0] != "%"]
    if not lines:
        raise ValueError(f"{path}: missing size line")
    size_line, entries = lines[0], lines[1:]
    try:
        nrows, ncols, nnz = (int(t) for t in size_line.split())
    except ValueError:
        raise ValueError(
            f"{path}: malformed size line {size_line!r}") from None
    if len(entries) > nnz:
        raise ValueError(f"{path}: more than {nnz} entries")
    if len(entries) != nnz:
        raise ValueError(
            f"{path}: expected {nnz} entries, found {len(entries)}")
    width = 2 if field == "pattern" else 3
    dtype = np.dtype(_ENTRY[:width])
    try:
        # Tokens beyond `width` on a line are ignored, fewer are an error.
        table = np.loadtxt(entries, dtype=dtype, comments=None,
                           usecols=range(width), ndmin=1) \
            if entries else np.empty(0, dtype=dtype)
    except ValueError as e:
        raise ValueError(f"{path}: malformed entry "
                         f"{_first_malformed(entries, width) or e!r}") from None
    rows, cols = table["row"], table["col"]
    outside = (rows < 1) | (rows > nrows) | (cols < 1) | (cols > ncols)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(
            f"{path}: entry ({rows[k]}, {cols[k]}) outside 1-based range "
            f"({nrows} x {ncols})")
    rows, cols = rows - 1, cols - 1
    vals = np.ones(nnz) if field == "pattern" else table["val"]
    A = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    if symmetry == "symmetric":
        off = rows != cols
        A = A + sp.coo_matrix((vals[off], (cols[off], rows[off])), shape=A.shape)
    return A.tocsr()
