"""Regenerate ``golden_ledgers.json`` — the plan-equivalence oracle.

Run from the repo root::

    PYTHONPATH=src:tests python tests/data/regen_golden.py

Writes both ``golden_ledgers.json`` (dense word pricing — the original
seed ledgers, never intentionally changed by refactors) and
``golden_ledgers_compact.json`` (the same cases under the compact
block-volume model, ``FactorOptions(compact_comm=True)`` — see
:mod:`repro.comm.volume`). The numeric factor checksums are identical in
both files: compact pricing changes the booked word counts, never the
arithmetic.

The JSON records, for a fixed set of small deterministic cases, every
per-rank simulator ledger (exact floats — ``json`` round-trips ``repr``
bit-for-bit) plus numeric factor checksums. ``tests/test_plan.py`` asserts
that the plan-driven drivers reproduce these ledgers *bit-identically* and
the factors to 1e-12; ``tests/test_resilience.py`` additionally pins the
fault cases' recovery ('rec') phase and checkpoint I/O charges.

The committed file was generated from the pre-plan-layer ("seed") loop
drivers (fault cases: from the resilience engine as first landed), so it
pins later refactors to the original schedules. Regenerate it only when a
PR *intentionally* changes the emitted event schedule, and say so in the
PR description. A checksum float that the fresh run reproduces to a
relative 1e-12 — the tolerance ``tests/test_plan.py`` reads it with; the
host's BLAS may move its last digits — keeps its stored text, so an
unchanged schedule rewrites both files unchanged; the script prints what
it kept. Every ledger field is compared exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.resilience import Fault, FaultPlan
from repro.sparse import arrowhead, grid2d_5pt, grid3d_7pt, power_law_laplacian
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import ledger_state

HERE = Path(__file__).resolve().parent
NAMES = {False: "golden_ledgers.json", True: "golden_ledgers_compact.json"}

#: Stored under the JSON key ``_readme`` so the data file documents its
#: own provenance (tests access cases by name and never iterate keys).
README = ("Golden per-rank simulator ledgers; regenerate with "
          "`PYTHONPATH=src:tests python tests/data/regen_golden.py` from "
          "the repo root, and only when a PR intentionally changes the "
          "emitted event schedule. Cases ending in _fault_* pin the "
          "resilience engine: the 'rec' phase ledgers and checkpoint "
          "I/O charges under a deterministic grid crash. Cases ending in "
          "_irregular pin blocking='irregular' (dense-row snapping + "
          "similarity amalgamation, repro.symbolic.blocking) end to end "
          "on generators.arrowhead(96, border=5) [geometric 1D ordering] "
          "and generators.power_law_laplacian(150, seed=0) [graph "
          "ordering] — matrices whose irregular blockings beat the "
          "uniform cap.")


def factor_checksum(result) -> dict:
    F = result.factors().to_dense()
    return {"sum": float(F.sum()), "abs_sum": float(np.abs(F).sum()),
            "max_abs": float(np.abs(F).max())}


def keep_stored(cases: dict, path: Path) -> list[str]:
    """Put the stored text back into every ``factor_checksum`` float of
    ``cases`` that is within a relative 1e-12 of the one in ``path``;
    returns the ``case.field`` names it kept."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    kept = []
    for case, record in cases.items():
        old = stored.get(case)
        if not (isinstance(record, dict) and "factor_checksum" in record
                and isinstance(old, dict) and "factor_checksum" in old):
            continue
        fresh, was = record["factor_checksum"], old["factor_checksum"]
        for field, value in fresh.items():
            if field in was and value != was[field] \
                    and math.isclose(value, was[field], rel_tol=1e-12):
                fresh[field] = was[field]
                kept.append(f"{case}.{field}")
    return kept


def planar_setup(nx: int, leaf: int, pz: int):
    A, geom = grid2d_5pt(nx)
    sf = symbolic_factorize(A, geom, leaf_size=leaf)
    return sf, greedy_partition(sf, pz)


def spd_setup(nx: int, leaf: int, pz: int):
    A, geom = grid2d_5pt(nx)
    S = (A + A.T) * 0.5
    S = (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()
    sf = symbolic_factorize(S, geom, leaf_size=leaf)
    return sf, greedy_partition(sf, pz)


def main(compact: bool = False, out_dir: Path = HERE) -> None:
    """Write ``NAMES[compact]`` into ``out_dir`` (default: next to this
    script; ``tests/test_plan.py::TestGoldenRegeneration`` regenerates
    into a temporary directory and compares with the committed files)."""
    def O(**kw):
        return FactorOptions(compact_comm=compact, **kw)

    cases: dict = {"_readme": README}

    # -- LU 2D baseline (Pz = 1), four option points pinning the schedule -
    sf2, tf2 = planar_setup(12, 16, 1)
    for label, opts in (
            ("default", O()),
            ("lookahead0", O(lookahead=0)),
            ("sparse_bcast", O(sparse_bcast=True)),
            # Row name kept from the deleted ``batched_schur=False`` per-block
            # loop: the one Schur body has to keep reproducing it.
            ("unbatched", O())):
        grid = ProcessGrid3D(2, 3, 1)
        sim = Simulator(grid.size, Machine.edison_like())
        factor_3d(sf2, tf2, grid, sim, numeric=False, options=opts)
        cases[f"lu2d_{label}"] = ledger_state(sim)

    # -- LU 3D, planar pz=4 (cost-only ledgers + numeric checksum) --------
    sf, tf = planar_setup(14, 16, 4)
    grid3 = ProcessGrid3D(2, 2, 4)
    sim = Simulator(grid3.size, Machine.edison_like())
    factor_3d(sf, tf, grid3, sim, numeric=False, options=O())
    cases["lu3d_pz4"] = ledger_state(sim)
    sim_n = Simulator(grid3.size, Machine.edison_like())
    res_n = factor_3d(sf, tf, grid3, sim_n, numeric=True, options=O())
    cases["lu3d_pz4_numeric"] = ledger_state(sim_n)
    cases["lu3d_pz4_numeric"]["factor_checksum"] = factor_checksum(res_n)

    # -- LU 3D, brick pz=2 ------------------------------------------------
    Ab, gb = grid3d_7pt(6)
    sfb = symbolic_factorize(Ab, gb, leaf_size=24)
    tfb = greedy_partition(sfb, 2)
    g3b = ProcessGrid3D(1, 2, 2)
    simb = Simulator(g3b.size, Machine.edison_like())
    factor_3d(sfb, tfb, g3b, simb, numeric=False, options=O())
    cases["lu3d_brick_pz2"] = ledger_state(simb)

    # -- merged-grid ancestors, pz=4 (cost-only + numeric) ----------------
    simm = Simulator(grid3.size, Machine.edison_like())
    factor_3d(sf, tf, grid3, simm, numeric=False, options=O(), merged=True)
    cases["merged_pz4"] = ledger_state(simm)
    simmn = Simulator(grid3.size, Machine.edison_like())
    factor_3d(sf, tf, grid3, simmn, numeric=True, options=O(), merged=True)
    cases["merged_pz4_numeric"] = ledger_state(simmn)

    # -- Cholesky, SPD planar pz=2 (cost-only + numeric checksum) ---------
    sfs, tfs = spd_setup(14, 16, 2)
    g3s = ProcessGrid3D(2, 2, 2)
    sims = Simulator(g3s.size, Machine.edison_like())
    factor_3d(sfs, tfs, g3s, sims, numeric=False, options=O(),
              backend="cholesky")
    cases["chol_pz2"] = ledger_state(sims)
    simsn = Simulator(g3s.size, Machine.edison_like())
    ress = factor_3d(sfs, tfs, g3s, simsn, numeric=True, options=O(),
                     backend="cholesky")
    cases["chol_pz2_numeric"] = ledger_state(simsn)
    cases["chol_pz2_numeric"]["factor_checksum"] = factor_checksum(ress)

    # -- irregular blocking: adversarial generators pinned end-to-end -----
    # Both cases choose the irregular candidate (snapping fires; the
    # uniform floor keeps them honest) — so these ledgers freeze the
    # whole snap/amalgamate/floor pipeline, not just the uniform
    # degenerate path.
    for label, (Ai, gi) in (
            ("arrowhead", arrowhead(96, border=5)),
            ("powerlaw", (power_law_laplacian(150, seed=0)[0], None))):
        sfi = symbolic_factorize(Ai, gi, leaf_size=24, max_block=32,
                                 blocking="irregular")
        assert sfi.blocking_info["chose"] == "irregular", label
        tfi = greedy_partition(sfi, 2)
        g3i = ProcessGrid3D(2, 2, 2)
        simi = Simulator(g3i.size, Machine.edison_like())
        resi = factor_3d(sfi, tfi, g3i, simi, numeric=True,
                         options=O(blocking="irregular"))
        case = cases[f"lu3d_{label}_irregular"] = ledger_state(simi)
        case["factor_checksum"] = factor_checksum(resi)

    # -- resilience: deterministic grid crash, both recovery policies ----
    # Pins the 'rec' phase ledgers (replay compute/comm) and the
    # checkpoint I/O charges, which nothing else in the suite freezes.
    crash = FaultPlan((Fault("crash", grid=2, level=1),))
    for label, opts in (
            ("restart", O(fault_plan=crash, checkpoint_every=20,
                          recovery="restart")),
            ("zreplica", O(fault_plan=crash, recovery="z-replica"))):
        simf = Simulator(grid3.size, Machine.edison_like())
        resf = factor_3d(sf, tf, grid3, simf, numeric=True, options=opts)
        case = cases[f"lu3d_pz4_fault_{label}"] = ledger_state(simf)
        case["factor_checksum"] = factor_checksum(resf)

    kept = keep_stored(cases, HERE / NAMES[compact])
    out = Path(out_dir) / NAMES[compact]
    out.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {out} ({len(cases) - 1} cases; stored text kept for "
          f"{len(kept)} checksum floats within rel 1e-12: "
          f"{', '.join(kept) or 'none'})")


if __name__ == "__main__":
    main()
    main(compact=True)
