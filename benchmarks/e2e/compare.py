"""Compare two records written by ``run.py --out``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both values, the relative change
from A to B, the metric's bound, and a verdict —

``ok``          B is no worse than A by more than the bound;
``worse``       it is (direction-aware: ``ops_per_s`` is worse when lower);
``unresolved``  it is not worse, but the spread between the repeats of either
                record is wider than the bound, so "unchanged" is not shown.

The deterministic ledger statistics of the per-layer pass (``sim_*``) are
compared the same way with the exact bound. Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys

import spec


def rows(a: dict, b: dict) -> list[dict]:
    out = []
    for w in spec.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(w), b["workloads"].get(w)
        if not wa or not wb:
            continue
        for section, names in (
                ("end_to_end", [n for n, *_ in spec.END_TO_END]),
                ("per_layer", [n for n, *_ in spec.PER_LAYER if n.startswith("sim_")])):
            if section not in wa or section not in wb:
                continue
            for name in names:
                ma, mb = wa[section]["metrics"][name], wb[section]["metrics"][name]
                bound = spec.BOUNDS.get(name, spec.EXACT)
                va, vb = ma["value"], mb["value"]
                change = (vb - va) / abs(va) if va else (0.0 if vb == va else float("inf"))
                worsening = change if spec.BETTER[name] == "lower" else -change
                if worsening > bound:
                    verdict = "worse"
                elif max(ma.get("spread", 0.0), mb.get("spread", 0.0)) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                out.append({"workload": w, "metric": name, "a": va, "b": vb, "unit": ma["unit"],
                            "change": change, "bound": bound, "verdict": verdict})
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(open(p).read()) for p in argv)
    table = rows(a, b)
    if not table:
        print("the two records share no workload")
        return 2
    print(f"A: {argv[0]} (seed {a['seed']}, commit {a['env'].get('git_commit')})")
    print(f"B: {argv[1]} (seed {b['seed']}, commit {b['env'].get('git_commit')})")
    print(f"{'workload':14s} {'metric':20s} {'A':>12s} {'B':>12s} {'unit':6s} "
          f"{'change':>9s} {'bound':>7s}  verdict")
    for r in table:
        print(f"{r['workload']:14s} {r['metric']:20s} {r['a']:12.6g} {r['b']:12.6g} "
              f"{r['unit']:6s} {r['change']:+9.2%} {r['bound']:7.2g}  {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in table) for v in ("ok", "worse", "unresolved")}
    print(f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
