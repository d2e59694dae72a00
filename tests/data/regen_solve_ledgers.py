"""Regenerate ``golden_solve_ledgers.json`` — the triangular solves' pin.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_solve_ledgers.py

Records what one solve books on the simulator — per-rank solve-phase words
and messages sent / received, ``flops["solve"]``, ``t_compute["solve"]``,
the final clocks and the event counts (floats as ``float.hex``) — for {LU
``solve`` under iterative refinement, LU ``solve_transposed``, Cholesky
``solve``} x nrhs {1, 8} x grids {2x2x1, 1x2x2, 2x2x4} x {planar, brick, a
vendored geometry-less ``.mtx``} x ``compact_comm`` {False, True}, each on a
freshly replayed factorization. The refined case solves against a matrix
1e-3 away from the factored one (factors that lag the matrix, as in time
stepping), so refinement takes five to seven decisive sweeps on the one
simulator instead of stopping at round-off, where a last-bit difference
could change the sweep count. The committed file was generated at commit
``92f6c56`` from the per-event sweeps of ``solve/triangular.py``
(``_sweep_down`` / ``_sweep_up``: one ``sim.compute`` / ``sim.send`` /
``sim.recv`` / ``bcast`` call per event), before the solve plan
(:mod:`repro.plan.solve`) replaced them, so it pins the plan's event streams
to the original issue order. ``golden_solve_x.json``, written alongside,
holds a probe of each case's solution (max-norm and a strided sample), which
the plan's sweeps must match to 1e-12. Regenerate only when a PR
intentionally changes the solve schedule.

A probe float within the tolerance ``tests/test_solve.py`` reads it with
(1e-12 of the stored ``norm_inf``; the host's BLAS may move the last
digits) keeps its stored text, so an unchanged solve rewrites both files
unchanged; the script prints how many it kept. The ledgers are written
exactly as built.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.cholesky import SparseCholesky3D
from repro.lu2d.options import FactorOptions
from repro.solve import SparseLU3D, iterative_refinement
from repro.sparse import grid2d_5pt, grid3d_7pt, read_matrix_market

HERE = Path(__file__).resolve().parent
OUT = HERE / "golden_solve_ledgers.json"
OUT_X = HERE / "golden_solve_x.json"

GRIDS = ((2, 2, 1), (1, 2, 2), (2, 2, 4))
NRHS = (1, 8)
KINDS = ("lu_refined", "lu_transposed", "cholesky")
#: Entries of ``x`` kept in the probe file.
PROBE = 24


def matrices():
    """``name -> (A, geometry)``; the ``.mtx`` one has no geometry, so its
    ordering is the general-graph dissection."""
    yield "planar", grid2d_5pt(16)
    yield "brick", grid3d_7pt(6)
    yield "powerlaw_mtx", (read_matrix_market(
        HERE.parent / "fixtures" / "powerlaw_300.mtx"), None)


def spd(A):
    S = (A + A.T) * 0.5
    return (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()


def near(A):
    """``A`` with every stored value moved by a relative 1e-3 (same
    pattern): what the refined case's factors lag behind."""
    E = A.copy().tocsr()
    E.data = E.data * (1.0 + 1e-3 * np.random.default_rng(5)
                       .standard_normal(E.data.size))
    return E


def solve_record(sim) -> dict:
    """The solve-phase ledgers of ``sim`` (what the file pins per case)."""
    def hexes(a):
        return [float(v).hex() for v in a]
    p = "solve"
    return {"words_sent": hexes(sim.words_sent[p]),
            "words_recv": hexes(sim.words_recv[p]),
            "msgs_sent": sim.msgs_sent[p].tolist(),
            "msgs_recv": sim.msgs_recv[p].tolist(),
            "flops": hexes(sim.flops[p]),
            "t_compute": hexes(sim.t_compute[p]),
            "clock": hexes(sim.clock),
            "event_counts": {k: int(v) for k, v in
                             sorted(sim.event_counts.items()) if v}}


def x_probe(x: np.ndarray) -> dict:
    flat = np.asarray(x, dtype=np.float64).ravel()
    return {"norm_inf": float(np.abs(flat).max()).hex(),
            "sample": [float(v).hex()
                       for v in flat[::max(flat.size // PROBE, 1)][:PROBE]]}


def cases():
    """``name -> thunk() -> (simulator, x)`` over the whole matrix."""
    for mname, (A, geom) in matrices():
        S, A_near = spd(A), near(A)
        n = A.shape[0]
        for px, py, pz in GRIDS:
            for compact in (False, True):
                opts = FactorOptions(compact_comm=compact)
                kw = dict(geometry=geom, px=px, py=py, pz=pz, leaf_size=16,
                          options=opts)
                solvers = {"lu": SparseLU3D(A, **kw), "near": A_near,
                           "cholesky": SparseCholesky3D(S, **kw)}
                for kind in KINDS:
                    for nrhs in NRHS:
                        name = (f"{kind}_{mname}_{px}x{py}x{pz}_nrhs{nrhs}_"
                                + ("compact" if compact else "dense"))
                        yield name, (lambda kind=kind, nrhs=nrhs,
                                     solvers=solvers, n=n:
                                     run_case(solvers, kind, nrhs, n))


def run_case(solvers, kind: str, nrhs: int, n: int):
    rng = np.random.default_rng(nrhs)
    b = rng.standard_normal(n) if nrhs == 1 \
        else rng.standard_normal((n, nrhs))
    s = solvers["cholesky" if kind == "cholesky" else "lu"]
    s.factorize()           # fresh simulator: every case starts alike
    if kind == "lu_refined":
        def sweep(r):
            return s.solve(r, refine=False)
        x = iterative_refinement(solvers["near"], b, sweep(b), sweep).x
    else:
        x = s.solve_transposed(b) if kind == "lu_transposed" else s.solve(b)
    return s.sim, x


def build() -> tuple[dict, dict]:
    """``(ledger records, x probes)`` of every case."""
    ledgers, probes = {}, {}
    for name, thunk in cases():
        sim, x = thunk()
        ledgers[name] = solve_record(sim)
        probes[name] = x_probe(x)
    return ledgers, probes


def keep_stored(probes: dict) -> int:
    """Put the stored text back into every probe float of ``probes``
    within 1e-12 of the stored ``norm_inf`` (relative, for ``norm_inf``
    itself) of ``OUT_X``'s; returns how many it kept."""
    stored = json.loads(OUT_X.read_text()) if OUT_X.exists() else {}
    kept = 0
    for name, probe in probes.items():
        if name not in stored:
            continue
        old = stored[name]
        scale = float.fromhex(old["norm_inf"])
        if probe["norm_inf"] != old["norm_inf"] and math.isclose(
                float.fromhex(probe["norm_inf"]), scale, rel_tol=1e-12):
            probe["norm_inf"] = old["norm_inf"]
            kept += 1
        for i, (new, was) in enumerate(zip(probe["sample"], old["sample"])):
            if new != was and abs(float.fromhex(new) - float.fromhex(was)) \
                    <= 1e-12 * scale:
                probe["sample"][i] = was
                kept += 1
    return kept


def dumps(records: dict, readme: str) -> str:
    return json.dumps({"_readme": readme, **records}, indent=1,
                      sort_keys=True) + "\n"


def main() -> None:
    ledgers, probes = build()
    kept = keep_stored(probes)
    OUT.write_text(dumps(ledgers,
                         __doc__.split("\n\n")[3].strip().replace("\n", " ")))
    OUT_X.write_text(dumps(probes, "solution probes of the cases of "
                           "golden_solve_ledgers.json (see "
                           "regen_solve_ledgers.py)"))
    print(f"wrote {OUT} and {OUT_X.name} ({len(ledgers)} cases; stored "
          f"text kept for {kept} probe floats within 1e-12)")


if __name__ == "__main__":
    main()
