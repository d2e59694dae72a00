"""Regenerate ``golden_analyzer.json`` — the static analyzer's verdicts.

Run from the repo root::

    PYTHONPATH=src python tests/data/regen_analyzer.py

Records, for each of the 301 grid-plan zoo cases of
``regen_plan_arrays.cases()``, what :func:`repro.verify.analyze_plan`
reports: ``n_tasks``, ``n_blocks``, ``n_pairs_checked``,
``race_check_skipped`` and ``counts()``. For the ``Pz`` 1 and 4 dense cases
at the default lookahead it also records the mutation self-test:
:func:`repro.verify.drop_dep_edge` at seeds 0, 1 and 2, each as its
description string plus the mutant's ``counts()``. The committed file was
generated at commit ``a871862``, when the analyzer still read a typed
per-task record view of the plan, so it pins the column-reading analyzer
to that one's verdicts. The 96 merged rows were regenerated once, when
merged grid plans came to touch their first z-layer's replica views
instead of one global view (merged numeric runs moved onto the replicas):
only their ``n_blocks`` and ``n_pairs_checked`` moved; every ``counts()``
and every mutant verdict stayed. They were regenerated again when a
node's factor op came to solve its L panel: the access model has
``PANEL_FACTOR(k)`` write every L block of ``k`` and an L-panel task only
read (send) its block, so ``n_pairs_checked`` fell in 280 cases (a
read-read pair is not counted) and the mutants are drawn from the
narrower candidate list (a panel task's edge to its factor, a Schur
update's to a U-panel solve); every zoo plan stayed clean and every
mutant still races. Regenerate only when a change intentionally changes
what the analyzer reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.lu2d.options import FactorOptions  # noqa: E402
from repro.verify import analyze_plan, drop_dep_edge  # noqa: E402
from tests.data.regen_plan_arrays import _sf_cache, cases  # noqa: E402

OUT = Path(__file__).resolve().parent / "golden_analyzer.json"

SEEDS = (0, 1, 2)
#: Cases whose mutation self-test is recorded too.
MUTATED = tuple(f"_pz{pz}_" for pz in (1, 4))


def mutated(name: str) -> bool:
    la = FactorOptions().lookahead
    return any(m in name for m in MUTATED) and f"_dense_la{la}" in name


def case_record(name: str, plan) -> dict:
    """What the file pins for one case."""
    sf = _sf_cache["one" if name.startswith("one_") else name.split("_pz")[0]]
    rep = analyze_plan(plan, sf)
    rec = {"n_tasks": rep.n_tasks, "n_blocks": rep.n_blocks,
           "n_pairs_checked": rep.n_pairs_checked,
           "race_check_skipped": rep.race_check_skipped,
           "counts": rep.counts()}
    if mutated(name):
        rec["drop_dep_edge"] = []
        for seed in SEEDS:
            mut, desc = drop_dep_edge(plan, seed=seed)
            rec["drop_dep_edge"].append(
                [desc, analyze_plan(mut, sf).counts()])
    return rec


def render(records: dict) -> str:
    """The file's text for ``name -> case_record`` of every case."""
    out = {"_readme": " ".join(__doc__.split("\n\n")[3].split()), **records}
    return json.dumps(out, indent=0, sort_keys=True) + "\n"


def main() -> None:
    records = {name: case_record(name, build()) for name, build in cases()}
    OUT.write_text(render(records))
    n = sum(len(r.get("drop_dep_edge", ())) for r in records.values())
    print(f"wrote {OUT} ({len(records)} cases, {n} mutants)")


if __name__ == "__main__":
    main()
