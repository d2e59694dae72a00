"""Regenerate ``golden_planstats.json`` — the static cost model's pin.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_planstats.py

Records :class:`repro.analysis.PlanStats` (task counts, per-kind flops,
messages, words, total and critical-path α-β-γ cost — exact floats) of
the golden-ledger cases' plans, in dense and compact block pricing. The
committed file was generated at commit ``108666a`` from the typed per-task
plans ``plan/build.py`` emitted before the array form
(:mod:`repro.plan.arrays`) replaced them, so it pins the array form —
which ``PlanStats``, the static analyzer and the conservation oracle
read — to the original task graph. Regenerate it only
when a PR intentionally changes the emitted tasks.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import scipy.sparse as sp

from repro.analysis import PlanStats
from repro.comm import Machine, ProcessGrid2D, ProcessGrid3D
from repro.lu2d.options import FactorOptions
from repro.plan import build_3d_plan, build_grid_plan
from repro.sparse import arrowhead, grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition

OUT = Path(__file__).resolve().parent / "golden_planstats.json"


def cases():
    """``name -> (builder(opts) -> plan)`` over every driver shape."""
    A, geom = grid2d_5pt(12)
    sf2 = symbolic_factorize(A, geom, leaf_size=16)
    for label, kw in (("default", {}), ("lookahead0", {"lookahead": 0}),
                      ("sparse_bcast", {"sparse_bcast": True})):
        yield f"lu2d_{label}", lambda o, kw=kw: build_grid_plan(
            sf2, range(sf2.nb), ProcessGrid2D(2, 3),
            dataclasses.replace(o, **kw))
    A, geom = grid2d_5pt(14)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    tf = greedy_partition(sf, 4)
    for merged in (False, True):
        yield ("merged_pz4" if merged else "lu3d_pz4"), \
            lambda o, m=merged: build_3d_plan(
                sf, tf, ProcessGrid3D(2, 2, 4), o, merged=m)
    Ab, gb = grid3d_7pt(6)
    sfb = symbolic_factorize(Ab, gb, leaf_size=24)
    tfb = greedy_partition(sfb, 2)
    yield "lu3d_brick_pz2", lambda o: build_3d_plan(
        sfb, tfb, ProcessGrid3D(1, 2, 2), o)
    S = (A + A.T) * 0.5
    S = (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()
    sfc = symbolic_factorize(S, geom, leaf_size=16)
    tfc = greedy_partition(sfc, 2)
    yield "chol_pz2", lambda o: build_3d_plan(
        sfc, tfc, ProcessGrid3D(2, 2, 2), o, backend="cholesky")
    Aa, ga = arrowhead(96, border=5)
    sfa = symbolic_factorize(Aa, ga, leaf_size=24, max_block=32,
                             blocking="irregular")
    tfa = greedy_partition(sfa, 2)
    yield "lu3d_arrowhead_irregular", lambda o: build_3d_plan(
        sfa, tfa, ProcessGrid3D(2, 2, 2),
        dataclasses.replace(o, blocking="irregular"))


def planstats_record(plan) -> dict:
    rec = dataclasses.asdict(PlanStats.from_plan(plan, Machine.edison_like()))
    rec["task_counts"] = dict(sorted(rec["task_counts"].items()))
    rec["flops_by_kind"] = dict(sorted(rec["flops_by_kind"].items()))
    return rec


def main() -> None:
    out = {"_readme": __doc__.split("\n\n")[2].replace("\n", " ")}
    for name, build in cases():
        for compact in (False, True):
            plan = build(FactorOptions(compact_comm=compact))
            out[name + ("_compact" if compact else "")] = \
                planstats_record(plan)
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(out) - 1} cases)")


if __name__ == "__main__":
    main()
