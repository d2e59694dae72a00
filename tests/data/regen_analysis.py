"""Regenerate ``golden_analysis.json`` — the analysis phase's byte-level pin.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_analysis.py

Records one sha1 per case over everything the analysis phase hands the plan
builder: the dissection tree (``perm``, ``parent``, node sizes), both panel
CSRs of the block fill, the four ``NodeCosts`` arrays, ``node_block_arrays``
for the LU and the Cholesky enumerators, and ``node_level`` /
``node_forest`` of ``greedy_partition`` and ``naive_partition`` at ``Pz``
{1, 2, 4, 8, 16}. The zoo is ``grid2d_5pt``, ``grid3d_7pt``, ``kkt_like``
and ``circuit_like`` with their geometry, ``circuit_like`` without it, and
an unsymmetric ``grid2d_5pt`` with random upper entries dropped, each at
``(leaf_size, max_block)`` {(16, None), (64, 256), (8, 16)}. Every array
is hashed with its dtype and shape. The committed file was generated at
commit ``86a81ba``, before the symbolic, block-enumeration, partition and
ordering loops were replaced by array passes, so it pins the array forms
to the loops' output bit for bit. Regenerate only when a PR intentionally
changes the analysis.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.lu2d.storage import node_block_arrays
from repro.plan import get_backend
from repro.sparse import circuit_like, grid2d_5pt, grid3d_7pt, kkt_like
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition, naive_partition

OUT = Path(__file__).resolve().parent / "golden_analysis.json"

PZ = (1, 2, 4, 8, 16)
#: ``(suffix, leaf_size, max_block)`` applied to every matrix.
VARIANTS = (("leaf16", 16, None), ("leaf64/mb256", 64, 256),
            ("leaf8/mb16", 8, 16))


def _unsymmetric():
    """``grid2d_5pt(24)`` with about half its strictly upper entries
    dropped: L and U panels differ, the ordering (symmetrized) does not."""
    A, geom = grid2d_5pt(24)
    upper = sp.triu(A, 1).tocoo()
    keep = np.random.default_rng(5).random(upper.nnz) < 0.5
    dropped = sp.coo_matrix((upper.data[keep], (upper.row[keep],
                                                upper.col[keep])),
                            shape=A.shape)
    return (sp.tril(A) + dropped).tocsr(), geom


def matrices():
    """``name -> (A, geometry | None)``."""
    yield "grid2d_32_geom", lambda: grid2d_5pt(32)
    yield "grid3d_10_geom", lambda: grid3d_7pt(10)
    yield "kkt_6_geom", lambda: kkt_like(6)
    yield "circuit_32_geom", lambda: circuit_like(32)
    yield "circuit_32", lambda: (circuit_like(32)[0], None)
    yield "unsym_grid2d_24_geom", _unsymmetric


def _sha(parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        a = np.ascontiguousarray(p)
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def analysis_record(A, geom, leaf: int, mb) -> dict:
    sf = symbolic_factorize(A, geom, leaf_size=leaf, max_block=mb)
    tree = sf.tree
    c = sf.costs
    parts = [tree.perm.perm, tree.parent, tree.sizes, *sf.fill.panel_csr(),
             c.factor_flops, c.panel_flops, c.schur_flops, c.factor_words]
    for backend in ("lu", "cholesky"):
        parts += node_block_arrays(sf, get_backend(backend).node_blocks)
    for pz in PZ:
        for partition in (greedy_partition, naive_partition):
            tf = partition(sf, pz)
            parts += [tf.node_level, tf.node_forest]
    return {"nb": sf.nb, "sha1": _sha(parts)}


def cases():
    """``case name -> thunk returning the record``."""
    for name, make in matrices():
        for suffix, leaf, mb in VARIANTS:
            yield f"{name}/{suffix}", \
                lambda make=make, leaf=leaf, mb=mb: \
                analysis_record(*make(), leaf, mb)


def render(records: dict) -> str:
    """The file's text for ``name -> analysis_record`` of every case."""
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def main() -> None:
    records = {name: thunk() for name, thunk in cases()}
    OUT.write_text(render(records))
    print(f"wrote {OUT} ({len(records)} cases)")


if __name__ == "__main__":
    main()
