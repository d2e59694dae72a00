"""Regenerate ``golden_tune_words.json`` — the tuner's per-candidate score pin.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_tune_words.py

Records the critical-path words (Fig. 10's ``W_total``) that
:meth:`repro.tune.Evaluator.measure` scores a candidate by, for every
executable candidate ``autotune_grid`` enumerates, for ``grid2d_5pt(32)``,
``grid3d_7pt(10)`` and ``arrowhead(512, border=8)`` with their geometry at
``leaf_size=32``, × ``P`` {12, 16} × dense / compact block pricing ×
uniform / irregular blocking × ``max_block`` {None, 32}: 48 cases, 360
candidates (the file also held 408 candidates with a 2.5D replication
factor ``c > 1``, removed with that option). The committed file was generated at commit
``57ae25f``, where each score was a cost-only ``factor_3d`` run under a
``Simulator`` (``FactorizationMetrics.w_total_max``); the scores now come
from the plan's own volume reduction, so the file pins that reduction to
the simulator's ledger bit for bit. Regenerate only when a PR
intentionally changes what a plan communicates.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lu2d.options import FactorOptions
from repro.sparse import arrowhead, grid2d_5pt, grid3d_7pt
from repro.tune import Evaluator, enumerate_candidates

OUT = Path(__file__).resolve().parent / "golden_tune_words.json"

LEAF_SIZE = 32
MATRICES = {"grid2d_32": lambda: grid2d_5pt(32),
            "grid3d_10": lambda: grid3d_7pt(10),
            "arrowhead_512": lambda: arrowhead(512, border=8)}
RANKS = (12, 16)
PRICING = ("dense", "compact")
BLOCKINGS = ("uniform", "irregular")
MAX_BLOCKS = (None, 32)


def cases():
    """``(case name, matrix name, P, pricing, blocking, max_block)``."""
    for name in MATRICES:
        for P in RANKS:
            for pricing in PRICING:
                for blocking in BLOCKINGS:
                    for mb in MAX_BLOCKS:
                        yield (f"{name}/P{P}/{pricing}/{blocking}/mb{mb}",
                               name, P, pricing, blocking, mb)


def evaluators():
    """``(matrix name, pricing) -> Evaluator``, one per pair, so a case
    shares its matrix's symbolic phases and partitions with the others."""
    out = {}
    for name, make in MATRICES.items():
        A, geom = make()
        for pricing in PRICING:
            out[name, pricing] = Evaluator(
                A, geom, leaf_size=LEAF_SIZE,
                options=FactorOptions(compact_comm=pricing == "compact"))
    return out


def case_words(ev, P: int, blocking: str, mb) -> dict[str, float]:
    """``candidate label -> measured words`` of one case."""
    return {c.label: ev.measure(c)
            for c in enumerate_candidates(P, max_blocks=(mb,),
                                          blockings=(blocking,),
                                          executable_only=True)}


def render(records: dict) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def main() -> None:
    evs = evaluators()
    records = {case: case_words(evs[name, pricing], P, blocking, mb)
               for case, name, P, pricing, blocking, mb in cases()}
    OUT.write_text(render(records))
    print(f"wrote {OUT} ({len(records)} cases, "
          f"{sum(map(len, records.values()))} candidates)")


if __name__ == "__main__":
    main()
