"""Regenerate ``golden_supernodes.json`` — the supernode-shaping pin.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_supernodes.py

Records one sha1 per case over the tree's ``perm``, ``parent`` and block
``offsets`` for the three tree builders ``golden_orderings.json`` does not
cover:

* ``relax_supernodes(nested_dissection(A, geometry, leaf, max_block=cap),
  min_size)`` at ``min_size`` {8, 24, 40} x ``cap`` {None, 16, 256};
* ``symbolic_factorize(A, geometry, leaf, max_block=cap,
  blocking="irregular")`` at ``cap`` {None, 32}, with its
  ``blocking_info``;
* ``tree_from_order(A, minimum_degree_order(A), max_block)`` at
  ``max_block`` {16, 128} (no leaf: the order has no dissection).

The zoo is ``grid2d_5pt``, ``grid3d_7pt``, ``circuit_like``, ``kkt_like``,
``power_law_laplacian``, ``arrowhead``, ``delaunay_mesh_2d`` and
``banded_dense_rows`` with their geometry (where they have one), each at
leaf {8, 32}. The committed file was generated at commit ``15a2182``,
before ``DissectionNode`` gave way to the array-only ``DissectionTree``, so
it pins the array builders to the object builders' trees bit for bit.
Its ``*/min_degree`` cases were regenerated once, when ``tree_from_order``
came to number its supernodes in postorder (the same supernodes and
fill, in another order). Regenerate only when a PR intentionally changes
a tree.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.ordering import (
    minimum_degree_order,
    nested_dissection,
    relax_supernodes,
    tree_from_order,
)
from repro.sparse import (
    arrowhead,
    banded_dense_rows,
    circuit_like,
    delaunay_mesh_2d,
    grid2d_5pt,
    grid3d_7pt,
    kkt_like,
    power_law_laplacian,
)
from repro.symbolic import symbolic_factorize

OUT = Path(__file__).resolve().parent / "golden_supernodes.json"

LEAVES = (8, 32)
RELAX_MIN = (8, 24, 40)
RELAX_CAPS = (None, 16, 256)
IRREGULAR_CAPS = (None, 32)
MD_CAPS = (16, 128)


def matrices():
    """``name -> (A, geometry | None)``, built lazily."""
    yield "grid2d_20", lambda: grid2d_5pt(20)
    yield "grid3d_7", lambda: grid3d_7pt(7)
    yield "circuit_16", lambda: circuit_like(16)
    yield "kkt_5", lambda: kkt_like(5)
    yield "power_law_300", lambda: power_law_laplacian(300)
    yield "arrowhead_256", lambda: arrowhead(256)
    yield "delaunay_300", lambda: delaunay_mesh_2d(300)
    yield "banded_300", lambda: banded_dense_rows(300)


def tree_sha1(tree) -> str:
    h = hashlib.sha1()
    for arr in (tree.perm.perm, tree.parent, tree.layout.offsets):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def _relaxed(made, leaf, cap, min_size):
    A, geom = made()
    tree = nested_dissection(A, geom, leaf_size=leaf, max_block=cap)
    return {"sha1": tree_sha1(relax_supernodes(tree, min_size=min_size))}


def _irregular(made, leaf, cap):
    A, geom = made()
    sf = symbolic_factorize(A, geom, leaf_size=leaf, max_block=cap,
                            blocking="irregular")
    return {"sha1": tree_sha1(sf.tree), "blocking_info": sf.blocking_info}


def _min_degree(order, made, cap):
    A, _geom = made()
    return {"sha1": tree_sha1(tree_from_order(A, order(), max_block=cap))}


def cases():
    """``case name -> thunk returning the record``; a matrix (and its
    minimum-degree order) is built once."""
    for name, make in matrices():
        made = functools.cache(make)
        order = functools.cache(lambda made=made:
                                minimum_degree_order(made()[0]))
        for leaf in LEAVES:
            for cap in RELAX_CAPS:
                for m in RELAX_MIN:
                    yield f"{name}/leaf{leaf}/mb{cap}/relax{m}", \
                        functools.partial(_relaxed, made, leaf, cap, m)
            for cap in IRREGULAR_CAPS:
                yield f"{name}/leaf{leaf}/mb{cap}/irregular", \
                    functools.partial(_irregular, made, leaf, cap)
        for cap in MD_CAPS:
            yield f"{name}/mb{cap}/min_degree", \
                functools.partial(_min_degree, order, made, cap)


def main() -> None:
    out = {name: thunk() for name, thunk in cases()}
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {OUT}")


if __name__ == "__main__":
    main()
