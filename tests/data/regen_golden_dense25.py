"""Regenerate ``golden_ledgers_dense25.json`` — the 2.5D ancestor oracle.

Run from the repo root::

    PYTHONPATH=src:tests python tests/data/regen_golden_dense25.py

Records, for a fixed set of small deterministic cases, every per-rank
simulator ledger produced by the 2.5D ancestor cost engine (``factor_3d``
with ``FactorOptions(ancestor_replication=Pz)``), in both the dense and the
compact block-volume modes. ``tests/test_dense25.py`` asserts that the
plan-driven generalized-replication path reproduces the dense-mode
ledgers *bit-identically*.

The committed dense-mode cases were generated from the pre-plan-layer
aggregate loop driver (the original Section VII cost study), so they pin
the generalized ``ancestor_replication`` refactor to the original event
schedule. The compact-mode cases were regenerated when replication-group
collectives and ancestor reductions moved onto the shared volume layer
(the legacy loop priced reduction hops at dense words even in compact
mode); regenerate them only when a PR *intentionally* changes compact
pricing, and say so in the PR description.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.comm.simulator import COMPUTE_KINDS, PHASES
from repro.lu2d.factor2d import FactorOptions
from repro.lu3d import factor_3d
from repro.sparse import grid2d_5pt, grid3d_7pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition

OUT = Path(__file__).resolve().parent / "golden_ledgers_dense25.json"

README = ("Golden per-rank ledgers for the 2.5D ancestor engine "
          "(factor_3d_dense25 / FactorOptions(ancestor_replication=Pz)); "
          "regenerate with `PYTHONPATH=src:tests python "
          "tests/data/regen_golden_dense25.py` from the repo root, and "
          "only when a PR intentionally changes the emitted schedule or "
          "the compact pricing of replication-group collectives.")


def ledger_dict(sim: Simulator) -> dict:
    out: dict = {"clock": sim.clock.tolist(),
                 "mem_current": sim.mem_current.tolist(),
                 "mem_peak": sim.mem_peak.tolist()}
    for k in COMPUTE_KINDS:
        out[f"flops:{k}"] = sim.flops[k].tolist()
        out[f"t_compute:{k}"] = sim.t_compute[k].tolist()
    for p in PHASES:
        out[f"words_sent:{p}"] = sim.words_sent[p].tolist()
        out[f"words_recv:{p}"] = sim.words_recv[p].tolist()
        out[f"msgs_sent:{p}"] = sim.msgs_sent[p].tolist()
        out[f"msgs_recv:{p}"] = sim.msgs_recv[p].tolist()
    out["event_counts"] = {k: int(v) for k, v in sim.event_counts.items()}
    return out


def brick_setup(nx: int, leaf: int, pz: int):
    A, g = grid3d_7pt(nx)
    sf = symbolic_factorize(A, g, leaf_size=leaf)
    return sf, greedy_partition(sf, pz)


def planar_setup(nx: int, leaf: int, pz: int):
    A, geom = grid2d_5pt(nx)
    sf = symbolic_factorize(A, geom, leaf_size=leaf)
    return sf, greedy_partition(sf, pz)


#: (case name, setup fn, (nx, leaf, pz), (px, py)) — small, deterministic.
CASES = (
    ("d25_brick_pz4", brick_setup, (10, 32, 4), (1, 2)),
    ("d25_brick_pz2", brick_setup, (8, 32, 2), (2, 2)),
    ("d25_brick_pz8", brick_setup, (12, 32, 8), (1, 2)),
    ("d25_planar_pz4", planar_setup, (14, 16, 4), (2, 2)),
)


def main() -> None:
    cases: dict = {"_readme": README}
    for name, setup, (nx, leaf, pz), (px, py) in CASES:
        sf, tf = setup(nx, leaf, pz)
        for suffix, opts in (("", FactorOptions()),
                             ("_compact", FactorOptions(compact_comm=True))):
            grid3 = ProcessGrid3D(px, py, pz)
            sim = Simulator(grid3.size, Machine.edison_like())
            factor_3d(sf, tf, grid3, sim, numeric=False,
                      options=replace(opts, ancestor_replication=pz))
            cases[name + suffix] = ledger_dict(sim)
    OUT.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {OUT} ({len(cases) - 1} cases)")


if __name__ == "__main__":
    main()
