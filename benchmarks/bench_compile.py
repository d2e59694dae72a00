"""Plan-compilation ablation: fused vs unfused dispatch count.

One ablation with a hard bar, recorded in ``BENCH_compile.json``: the
compile pass exists to cut interpreter overhead, so the honest metric is
how many dispatches the interpreter performs, not modeled seconds (fusion
never changes those: ledgers are asserted bit-identical here). On the
cost-only workload the fused plan must need >= 3x fewer dispatches, and
the wall-clock per original task is reported for both forms.

Host-parallel speedup bars live in ``bench_parallel_scaling.py`` (and are
skipped honestly on small hosts); end-to-end numbers in
``benchmarks/e2e``.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import run_once, scale
from repro.comm import ProcessGrid3D, Simulator
from repro.lu2d.factor2d import FactorOptions
from repro.lu3d.factor3d import CostOnlyData, Factor3DResult, _execute_plan3d
from repro.plan import compile_plan
from repro.plan.build import build_3d_plan
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify.oracle import ledger_state

PZ = 8
LEAF = 8
#: Planar lattice edge per scale for the cost-only dispatch ablation.
CONFIGS = {"tiny": 48, "small": 64, "medium": 80}
MIN_DISPATCH_REDUCTION = 3.0
REPS = 3
OUT = Path(__file__).resolve().parent.parent / "BENCH_compile.json"


def _prepare(nx: int, leaf: int, pz: int):
    A, geom = grid2d_5pt(nx)
    sf = symbolic_factorize(A, geom, leaf_size=leaf)
    return sf, greedy_partition(sf, pz)


def _exec_cost(plan3, sf, tf, grid3):
    """Interpret one (possibly compiled) Plan3D cost-only; return the sim."""
    sim = Simulator(grid3.size)
    t0 = time.perf_counter()
    _execute_plan3d(plan3, sf, sim, Factor3DResult(tf), FactorOptions(),
                    None, CostOnlyData())
    return time.perf_counter() - t0, sim


def _dispatch_ablation(sf, tf):
    # Compilation is a once-per-plan cost (recorded as compile_s); the
    # interpreter-overhead row times the execution phase alone, which is
    # what fusion speeds up and what repeated solves amortize against.
    grid3 = ProcessGrid3D(2, 2, PZ)
    opts = FactorOptions()
    plan3 = build_3d_plan(sf, tf, grid3, opts, backend="lu")
    t_compile = 1e9
    for _ in range(REPS):
        t0 = time.perf_counter()
        comp = compile_plan(plan3, sf, opts)
        t_compile = min(t_compile, time.perf_counter() - t0)
    runs_f = [_exec_cost(comp.plan, sf, tf, grid3) for _ in range(REPS)]
    runs_p = [_exec_cost(plan3, sf, tf, grid3) for _ in range(REPS)]
    t_fused = min(r[0] for r in runs_f)
    t_plain = min(r[0] for r in runs_p)
    assert ledger_state(runs_f[-1][1]) == ledger_state(runs_p[-1][1]), \
        "fused cost-only ledgers diverged from unfused"
    st = comp.stats
    n_before, n_after = st.n_tasks_before, st.n_tasks_after
    return {
        "dispatches_unfused": int(n_before),
        "dispatches_fused": int(n_after),
        "dispatch_reduction": round(float(st.dispatch_reduction), 3),
        "fused_runs": int(st.n_fused),
        "vector_unsafe_runs": int(st.n_vector_unsafe),
        "compile_s": round(t_compile, 6),
        "time_fused_s": round(t_fused, 6),
        "time_unfused_s": round(t_plain, 6),
        "exec_speedup": round(t_plain / t_fused, 3),
        # interpreter-overhead row: original tasks retired per second of
        # host time -- the quantity fusion improves.
        "tasks_per_s_fused": round(n_before / t_fused, 1),
        "tasks_per_s_unfused": round(n_before / t_plain, 1),
        "ledgers_identical": True,
    }


def test_compile_ablations(benchmark):
    sc = scale()
    nx = CONFIGS[sc]
    sf, tf = _prepare(nx, LEAF, PZ)

    def experiment():
        return {"dispatch": _dispatch_ablation(sf, tf)}

    rec = run_once(benchmark, experiment)
    record = {
        "bench": "bench_compile",
        "scale": sc,
        "workload": {"matrix": f"grid2d_5pt({nx})", "leaf": LEAF,
                     "grid": f"2x2x{PZ}", "numeric": False,
                     "n_supernodes": sf.nb, "reps_best_of": REPS},
        "threshold_dispatch": MIN_DISPATCH_REDUCTION,
        "skipped": None,
        **rec,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")

    d = rec["dispatch"]
    print()
    print(f"plan compilation @ {sc} (grid2d_5pt({nx}), leaf {LEAF}, "
          f"pz={PZ}, best of {REPS}):")
    print(f"  dispatches : {d['dispatches_unfused']} -> "
          f"{d['dispatches_fused']}  ({d['dispatch_reduction']:.2f}x "
          f"reduction, {d['fused_runs']} fused runs)")
    print(f"  cost-only  : exec {d['time_unfused_s']:.3f}s -> "
          f"{d['time_fused_s']:.3f}s  ({d['exec_speedup']:.2f}x, "
          f"{d['tasks_per_s_unfused']:.0f} -> "
          f"{d['tasks_per_s_fused']:.0f} tasks/s; "
          f"compile once {d['compile_s']:.3f}s)")
    print(f"  record written to {OUT.name}")

    assert d["dispatch_reduction"] >= MIN_DISPATCH_REDUCTION, \
        f"dispatch reduction {d['dispatch_reduction']} < " \
        f"{MIN_DISPATCH_REDUCTION}"
