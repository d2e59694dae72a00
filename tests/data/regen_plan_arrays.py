"""Regenerate ``golden_plan_arrays.json`` — the grid plans' byte-level pin.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_plan_arrays.py

Records one sha1 per grid plan over its *resolved* columns — ``tid``,
``kind``, ``node``, ``bi``, ``bj``, ``side``, ``owner``, ``flops``, the
dependency CSR, the broadcast specs with ``comms[bc_comm]`` written out as
rank tuples (interning ids are free), the Schur pairs, the event and memory
streams and ``runs``, plus the plan's ``(g, level, px, py, base, nodes)`` —
one per ``AncestorReduce`` and one per level barrier, for {planar, brick, a
geometry-less power-law graph} x ``Pz`` {1, 2, 4, 8, 16} x {LU, Cholesky,
merged} x {dense, compact} x ``lookahead`` {0, default} x ``sparse_bcast``
{off, on} (LU and merged; the Cholesky backend never reads it), and a
one-supernode matrix at ``Pz = 16`` whose four deeper levels hold no grid
plan. The committed file was generated at commit ``be41204`` from the
per-grid builder (one ``build_grid_plan`` + one ``TaskArrays.assemble`` per
grid plan), before the level became the unit of plan construction, so it
pins every slice of a level's arrays to the grid plan that used to be built
on its own. The 72 merged rows at ``Pz >= 2`` were regenerated once, when
a merged grid plan came to be numbered by its first z-layer (``b *
width``) rather than its forest index ``b``, so that grid plans and
reduces share one numbering and merged numeric runs bind to the replicas;
only their ``plans`` digests moved, and re-digesting them with the forest
index reproduces the earlier file byte for byte. Regenerate only when a
PR intentionally changes the emitted tasks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.comm import ProcessGrid3D
from repro.lu2d.options import FactorOptions
from repro.plan import build_3d_plan
from repro.sparse import grid2d_5pt, grid3d_7pt, power_law_laplacian
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition

OUT = Path(__file__).resolve().parent / "golden_plan_arrays.json"

PZ = (1, 2, 4, 8, 16)
PX, PY = 2, 3
#: ``variant -> build_3d_plan keywords``.
VARIANTS = {"lu": {}, "cholesky": {"backend": "cholesky"},
            "merged": {"merged": True}}
#: Integer and float columns hashed per grid plan, in this order.
COLUMNS = ("tid", "kind", "node", "bi", "bj", "side", "owner", "flops",
           "dep_ptr", "dep_idx", "bc_ptr", "bc_root", "bc_words", "bc_route",
           "pair_ptr", "pair_owner", "pair_flops", "ev_ptr", "ev_src",
           "ev_dst", "ev_val", "ev_kind", "mem_ptr", "mem_rank", "mem_words",
           "runs")

_sf_cache: dict = {}


def matrices():
    """``name -> symbolic factorization`` (memoized: the test re-reads)."""
    def make(name, gen, leaf):
        if name not in _sf_cache:
            A, geom = gen()
            _sf_cache[name] = symbolic_factorize(A, geom, leaf_size=leaf)
        return _sf_cache[name]
    yield "planar", make("planar", lambda: grid2d_5pt(20), 8)
    yield "brick", make("brick", lambda: grid3d_7pt(6), 12)
    yield "powerlaw", make("powerlaw", lambda: power_law_laplacian(160), 8)


def cases():
    """``name -> builder() -> Plan3D`` over the whole zoo."""
    default = FactorOptions().lookahead
    for mname, sf in matrices():
        for pz in PZ:
            tf = greedy_partition(sf, pz)
            grid3 = ProcessGrid3D(PX, PY, pz)
            for vname, kw in VARIANTS.items():
                for compact in (False, True):
                    for la in (0, default):
                        for sb in (False, True):
                            if sb and vname == "cholesky":
                                continue
                            opts = FactorOptions(
                                compact_comm=compact, lookahead=la,
                                sparse_bcast=sb)
                            name = (f"{mname}_pz{pz}_{vname}"
                                    f"_{'compact' if compact else 'dense'}"
                                    f"_la{la}{'_sparse' if sb else ''}")
                            yield name, lambda sf=sf, tf=tf, g=grid3, \
                                o=opts, kw=kw: build_3d_plan(sf, tf, g, o, **kw)
    sf1 = _sf_cache.get("one")
    if sf1 is None:
        A, geom = grid2d_5pt(3)
        sf1 = _sf_cache["one"] = symbolic_factorize(A, geom, leaf_size=64)
    assert sf1.nb == 1
    tf1 = greedy_partition(sf1, 16)
    yield "one_supernode_pz16_lu_dense", lambda: build_3d_plan(
        sf1, tf1, ProcessGrid3D(PX, PY, 16), FactorOptions())


def _sha(parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        a = np.ascontiguousarray(p)
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def grid_plan_digest(gp) -> str:
    A = gp.arrays
    comms = [A.comms[c] for c in A.bc_comm.tolist()]
    return _sha([
        np.asarray([gp.g, gp.level, gp.px, gp.py, gp.base], dtype=np.int64),
        np.asarray(gp.nodes, dtype=np.int64),
        *(getattr(A, c) for c in COLUMNS),
        np.asarray([len(c) for c in comms], dtype=np.int64),
        np.asarray([r for c in comms for r in c], dtype=np.int64)])


def reduce_digest(red) -> str:
    head = np.asarray([red.tid, red.dst_grid, red.src_grid, red.below_level,
                       *red.deps], dtype=np.int64)
    if red.ops is None:
        return _sha([head, red.rows, red.cols, red.words, red.srcs, red.dsts])
    op, src, dst, words = zip(*red.ops)
    return _sha([head, np.asarray([o == "red" for o in op]),
                 np.asarray(src, dtype=np.int64),
                 np.asarray(dst, dtype=np.int64),
                 np.asarray(words, dtype=np.float64)])


def plan_record(plan) -> dict:
    """What the file pins per case, level-major as the plan lists them."""
    return {
        "plans_per_level": [len(s.grid_plans) for s in plan.levels],
        "plans": [grid_plan_digest(gp) for s in plan.levels
                  for gp in s.grid_plans],
        "reduces": [reduce_digest(r) for s in plan.levels
                    for r in s.reduces],
        "barriers": _sha([np.asarray(
            [s.barrier.tid, s.barrier.level, *s.barrier.deps],
            dtype=np.int64) for s in plan.levels]),
    }


def render(records: dict) -> str:
    """The file's text for ``name -> plan_record`` of every case."""
    out = {"_readme": " ".join(__doc__.split("\n\n")[3].split()), **records}
    return json.dumps(out, indent=0, sort_keys=True) + "\n"


def main() -> None:
    records = {name: plan_record(build()) for name, build in cases()}
    OUT.write_text(render(records))
    n = sum(len(rec["plans"]) for rec in records.values())
    print(f"wrote {OUT} ({len(records)} cases, {n} grid plans)")


if __name__ == "__main__":
    main()
