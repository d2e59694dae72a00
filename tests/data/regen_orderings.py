"""Regenerate ``golden_orderings.json`` — the dissection-tree pin.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_orderings.py [CASE ...]

Records, per case, the block count, the height and one sha1 over
``tree.perm.perm`` + ``tree.parent`` + the node sizes of
``nested_dissection(A, geometry, leaf_size, method, max_block)`` —
``method="bfs"`` on ``matrices()``, ``"fiedler"`` on ``fiedler_matrices()``.
Everything downstream of the ordering (symbolic fill, plan, every
simulated ledger) is a function of that tree, so an ordering refactor that
keeps these hashes keeps all of it.

The committed file was generated at commit ``bb028c3`` — the per-vertex
BFS, ``adj[v][:, v]`` slicing and SpMV crossing test — *before* the
ordering layer was rebuilt on the CSR neighbour gather, so it pins the
rebuilt layer to the original trees. With case names on the command line
only those entries are regenerated and the rest of the file is kept: that
is how the cases in ``REGENERATED`` (below) were updated, and the only way
an entry may change. The ``fiedler`` cases were added by PR 20: those whose
every dissected region is connected were generated at its parent commit
``6df38a5`` (PR 20 leaves their trees alone); the rest are in
``REGENERATED``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.ordering import nested_dissection
from repro.sparse import (
    circuit_like,
    delaunay_mesh_2d,
    fixture_names,
    grid2d_5pt,
    grid3d_7pt,
    kkt_like,
    load_fixture,
    power_law_laplacian,
    random_symmetric_pattern,
)

OUT = Path(__file__).resolve().parent / "golden_orderings.json"

#: Cases whose tree a PR changed on purpose, with the reason. PR 19: a
#: region `bfs_level_separator` cannot split (one component a single BFS
#: level deep) is emitted as a leaf instead of being peeled one vertex per
#: recursion; it occurs in exactly these cases.
REGENERATED = {
    "power_law_2000/leaf8": "PR 19: unsplittable region becomes a leaf",
    "power_law_2000/leaf8/mb16": "PR 19: unsplittable region becomes a leaf",
    # PR 20: `fiedler_separator` takes its documented BFS fallback on a
    # disconnected region instead of an arbitrary null-space vector (which
    # differed from process to process on the power-law case).
    **{f"{name}/{suffix}": "PR 20: disconnected region falls back to BFS"
       for name in ("power_law_600_s1", "delaunay_500", "disconnected")
       for suffix in ("fiedler/leaf16", "fiedler/leaf32/mb24")},
}


def _disconnected():
    """Block-diagonal graph: a 12x12 lattice, a random graph, a path, a
    triangle and two isolated vertices — components of every depth class
    the separator distinguishes."""
    path = sp.diags([np.ones(39), np.ones(39)], [1, -1])
    tri = sp.csr_matrix(np.ones((3, 3)))
    return sp.block_diag([
        grid2d_5pt(12)[0], random_symmetric_pattern(150, 3.0, seed=3),
        path, tri, sp.csr_matrix((2, 2))], format="csr")


def matrices():
    """``name -> (A, geometry | None)``, built lazily."""
    for name in fixture_names():
        yield name, lambda name=name: (load_fixture(name)[0], None)
    yield "circuit_24", lambda: (circuit_like(24)[0], None)
    yield "circuit_48", lambda: (circuit_like(48)[0], None)
    yield "kkt_8", lambda: (kkt_like(8)[0], None)
    yield "power_law_2000", lambda: (power_law_laplacian(2000)[0], None)
    yield "delaunay_500", lambda: (delaunay_mesh_2d(500)[0], None)
    yield "disconnected", lambda: (_disconnected(), None)
    yield "grid2d_32", lambda: (grid2d_5pt(32)[0], None)
    yield "grid2d_32_geom", lambda: grid2d_5pt(32)
    yield "grid3d_10", lambda: (grid3d_7pt(10)[0], None)
    yield "grid3d_10_geom", lambda: grid3d_7pt(10)
    yield "circuit_24_geom", lambda: circuit_like(24)
    yield "kkt_8_geom", lambda: kkt_like(8)


def fiedler_matrices():
    """The ``method="fiedler"`` cases (no geometry): three whose every region
    is connected, three that hit the disconnected-region fallback."""
    yield "circuit_24", lambda: (circuit_like(24)[0], None)
    yield "arrowhead_200", lambda: (load_fixture("arrowhead_200")[0], None)
    yield "banded_rails_300", lambda: (load_fixture("banded_rails_300")[0],
                                       None)
    yield "power_law_600_s1", lambda: (power_law_laplacian(600, seed=1)[0],
                                       None)
    yield "delaunay_500", lambda: (delaunay_mesh_2d(500)[0], None)
    yield "disconnected", lambda: (_disconnected(), None)


#: (suffix, leaf_size, max_block) applied to every matrix.
VARIANTS = (("leaf8", 8, None), ("leaf32", 32, None), ("leaf64", 64, None),
            ("leaf8/mb16", 8, 16), ("leaf32/mb24", 32, 24))
FIEDLER_VARIANTS = (("fiedler/leaf16", 16, None),
                    ("fiedler/leaf32/mb24", 32, 24))


def tree_record(tree) -> dict:
    sizes = np.array([node.size for node in tree.nodes], dtype=np.int64)
    h = hashlib.sha1()
    for arr in (tree.perm.perm, tree.parent, sizes):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return {"nblocks": tree.nblocks, "height": tree.height(),
            "sha1": h.hexdigest()}


def cases():
    """``case name -> thunk returning the record``; a matrix is built once."""
    for method, mats, variants in (("bfs", matrices(), VARIANTS),
                                   ("fiedler", fiedler_matrices(),
                                    FIEDLER_VARIANTS)):
        for name, make in mats:
            made = functools.cache(make)
            for suffix, leaf, mb in variants:
                yield f"{name}/{suffix}", \
                    lambda made=made, leaf=leaf, mb=mb, method=method: \
                    tree_record(nested_dissection(*made(), leaf_size=leaf,
                                                  method=method, max_block=mb))


def main(argv: list[str]) -> None:
    only = set(argv)
    out = json.loads(OUT.read_text()) if only else {}
    known = dict(cases())
    unknown = only - set(known)
    if unknown:
        raise SystemExit(f"unknown case(s): {sorted(unknown)}")
    for name, thunk in known.items():
        if not only or name in only:
            out[name] = thunk()
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(only) or len(out)} of {len(out)} cases to {OUT}")


if __name__ == "__main__":
    main(sys.argv[1:])
