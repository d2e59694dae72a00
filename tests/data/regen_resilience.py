"""Regenerate ``golden_resilience.json`` — the resilience engine's pin.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_resilience.py

Records, per case, a sha1 of the run's full ledger state
(:func:`repro.verify.ledger_state`), every
:class:`~repro.resilience.ResilienceStats` field, and — for numeric runs —
a sha1 of the dense factors. The cases cross the drivers (LU 3D numeric
and cost-only, merged, Cholesky, LU 2D numeric and cost-only) with both
recovery policies, checkpoint cadences ``{0, 7, 20}``, a grid crash at
every level of the schedule, a slow rank, dropped messages, task- and
time-armed crashes, and dense / compact block pricing: 96 cases.

The committed file was generated at commit ``ae87111``, where the 3D and
2D drivers walked a resilient run through loops of their own in
``repro.resilience.engine``; every later walk must reproduce it byte for
byte. The ``lu2d*`` cases are the 2D baseline, now run as
:func:`repro.lu3d.factor_3d` at ``Pz = 1``. The 12 merged rows were
regenerated once, when merged numeric runs moved from one global block
store onto the replicas: their ``factors`` became the LU 3D rows' hash
and the z-replica rows' note names the true reason for the restart (a
merged grid's rank span holds the sibling replicas); every ledger hash
stayed. The 76 LU, LU 2D and merged numeric rows' ``factors`` were
regenerated once more, when a node's factor op came to run one LAPACK
``dgetrf`` over its diagonal block and packed L rows (the same factors up
to rounding); every ledger hash and stats field stayed. Regenerate only
when a PR intentionally changes what a fault, checkpoint or recovery books.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.resilience import Fault, FaultPlan
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import ledger_state

OUT = Path(__file__).resolve().parent / "golden_resilience.json"

POLICIES = ("restart", "z-replica")
PRICING = ("dense", "compact")


def crash(lvl=None, grid=0, **kw) -> Fault:
    return Fault("crash", grid=grid, level=lvl, **kw)


@functools.cache
def planar_setup(pz: int):
    A, geom = grid2d_5pt(14)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    return sf, greedy_partition(sf, pz)


@functools.cache
def spd_setup(pz: int):
    A, geom = grid2d_5pt(14)
    S = (A + A.T) * 0.5
    S = (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()
    sf = symbolic_factorize(S, geom, leaf_size=16)
    return sf, greedy_partition(sf, pz)


@functools.cache
def lu2d_setup():
    A, geom = grid2d_5pt(12)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    return sf, greedy_partition(sf, 1)


SLOW = Fault("slow", rank=0, slow_factor=3.0)
DROP = Fault("drop", src=0, n_messages=3)


def cases():
    """``(name, driver, policy, checkpoint_every, faults, compact)``."""
    for pricing in PRICING:
        compact = pricing == "compact"
        rows = []
        for policy in POLICIES:
            for every in (0, 7, 20):
                rows += [("lu3d", policy, every, (crash(lvl),), f"crash_l{lvl}")
                         for lvl in (0, 1, 2)]
                rows.append(("lu2d", policy, every, (crash(),), "crash"))
            for lvl in (0, 1, 2):
                rows.append(("merged", policy, 7, (crash(lvl),),
                             f"crash_l{lvl}"))
            for lvl in (0, 1):
                rows.append(("chol", policy, 7, (crash(lvl),),
                             f"crash_l{lvl}"))
            for every in (0, 7):
                rows.append(("lu3d_cost", policy, every, (crash(1, grid=2),),
                             "crash_g2_l1"))
        rows += [
            ("lu3d", "restart", 7, (SLOW,), "slow"),
            ("lu3d", "z-replica", 20, (DROP,), "drop"),
            ("lu3d", "restart", 0, (crash(at_task=8),), "crash_task8"),
            ("lu3d", "z-replica", 7, (crash(grid=2, at_time=1e-4),),
             "crash_g2_t1e-4"),
            ("lu3d", "z-replica", 7, (crash(1, grid=2), SLOW, DROP), "mixed"),
            ("lu3d", "restart", 5, (), "checkpoints_only"),
            ("lu2d", "restart", 7, (SLOW,), "slow"),
            ("lu2d", "z-replica", 20, (DROP,), "drop"),
            ("lu2d_cost", "restart", 7, (crash(),), "crash"),
            ("lu2d_cost", "z-replica", 0, (crash(),), "crash"),
        ]
        for driver, policy, every, faults, label in rows:
            yield (f"{pricing}/{driver}/{policy}/cp{every}/{label}", driver,
                   policy, every, faults, compact)


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def run_case(driver: str, policy: str, every: int, faults, compact: bool
             ) -> dict:
    """One case's record: ledger hash, stats fields, factor hash."""
    opts = FactorOptions(fault_plan=FaultPlan(faults), recovery=policy,
                         checkpoint_every=every, compact_comm=compact)
    mach = Machine.edison_like()
    dense = None
    if driver.startswith("lu2d"):       # the 2D baseline: Pz = 1
        sf, tf = lu2d_setup()
        grid3 = ProcessGrid3D(2, 3, 1)
    elif driver == "chol":
        sf, tf = spd_setup(2)
        grid3 = ProcessGrid3D(2, 2, 2)
    else:
        sf, tf = planar_setup(4)
        grid3 = ProcessGrid3D(2, 2, 4)
    sim = Simulator(grid3.size, mach)
    numeric = not driver.endswith("_cost")
    kw = {"merged": {"merged": True}, "chol": {"backend": "cholesky"}}.get(
        driver, {})
    res = factor_3d(sf, tf, grid3, sim, numeric=numeric, options=opts, **kw)
    if numeric:
        dense = res.factors().to_dense()
    stats = res.resilience
    rec = {"ledger": _sha1(json.dumps(ledger_state(sim),
                                      sort_keys=True).encode()),
           "stats": dataclasses.asdict(stats)}
    if dense is not None:
        rec["factors"] = _sha1(np.ascontiguousarray(dense).tobytes())
    return rec


def render(records: dict) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def records() -> dict:
    return {name: run_case(*args) for name, *args in cases()}


def main() -> None:
    recs = records()
    OUT.write_text(render(recs))
    print(f"wrote {OUT} ({len(recs)} cases)")


if __name__ == "__main__":
    main()
