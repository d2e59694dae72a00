"""Host-parallel scaling bench: the per-level z-grid fan-out vs serial.

Algorithm 1's structural win is that the ``Pz`` subtree-forests of every
level factor independently on disjoint 2D grids; :mod:`repro.parallel`
exploits that on the host by running them on a process pool with forked
simulator ledgers merged back in grid order. This bench factors a planar
problem at ``pz = 8`` (numeric mode) serially and with 2 and 4 workers
and records the wall-clock ratio in ``BENCH_parallel.json``.

Correctness is asserted unconditionally and is the real gate: every
simulator ledger must be *bit-identical* across worker counts, and the
assembled factors must agree to 1e-12. The ≥1.5x 4-worker speedup bar is
asserted only when the host actually has ≥ 4 cores — on smaller CI/dev
boxes the record still documents the measured ratio, but a machine
without the cores cannot fail a multi-core scaling bar meaningfully.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once, scale
from repro.comm import ProcessGrid3D, Simulator
from repro.comm.simulator import COMPUTE_KINDS, PHASES
from repro.lu2d.factor2d import FactorOptions
from repro.lu3d import factor_3d
from repro.sparse import grid2d_5pt
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition

PZ = 8
WORKER_COUNTS = (2, 4)
#: Planar lattice edge per scale; pz=8 keeps every level >= 2 grids wide
#: until the root so the fan-out engages at 3 of the 4 levels.
CONFIGS = {"tiny": 24, "small": 40, "medium": 56}
MIN_SPEEDUP_4W = 1.5
REPS = 3
OUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _prepare(nx: int):
    A, geom = grid2d_5pt(nx)
    sf = symbolic_factorize(A, geom, leaf_size=16)
    tf = greedy_partition(sf, PZ)
    return sf, tf


def _run(sf, tf, n_workers: int):
    grid3 = ProcessGrid3D(2, 2, PZ)
    sim = Simulator(grid3.size)
    opts = FactorOptions(n_workers=n_workers)
    t0 = time.perf_counter()
    res = factor_3d(sf, tf, grid3, sim, numeric=True, options=opts)
    return time.perf_counter() - t0, sim, res


def _best(sf, tf, n_workers: int):
    runs = [_run(sf, tf, n_workers) for _ in range(REPS)]
    best = min(r[0] for r in runs)
    return best, runs[-1][1], runs[-1][2]


def _interpreter_overhead(sf, tf):
    """Cost-only interpreter-overhead row: with no numeric kernels the
    run is pure dispatch, so execution tasks/second isolates what walking
    the plan's full-width runs saves over one dispatch per task."""
    from repro.lu3d.factor3d import (CostOnlyData, Factor3DResult,
                                     _execute_plan3d)
    from repro.plan.build import build_3d_plan

    grid3 = ProcessGrid3D(2, 2, PZ)
    opts = FactorOptions()
    plan3 = build_3d_plan(sf, tf, grid3, opts, backend="lu")

    def exec_once(fuse):
        sim = Simulator(grid3.size)
        t0 = time.perf_counter()
        _execute_plan3d(plan3, sf, sim, Factor3DResult(tf), opts,
                        None, CostOnlyData(), fuse=fuse)
        return time.perf_counter() - t0

    t_fused = min(exec_once(True) for _ in range(REPS))
    t_plain = min(exec_once(False) for _ in range(REPS))
    st = plan3.fusion_stats()
    return {
        "dispatches_unfused": int(st.n_tasks_before),
        "dispatches_fused": int(st.n_tasks_after),
        "dispatch_reduction": round(float(st.dispatch_reduction), 3),
        "tasks_per_s_unfused": round(st.n_tasks_before / t_plain, 1),
        "tasks_per_s_fused": round(st.n_tasks_before / t_fused, 1),
    }


def _ledgers(sim: Simulator) -> list[np.ndarray]:
    out = [sim.clock, sim.mem_current, sim.mem_peak]
    out += [sim.flops[k] for k in COMPUTE_KINDS]
    out += [sim.t_compute[k] for k in COMPUTE_KINDS]
    for p in PHASES:
        out += [sim.words_sent[p], sim.words_recv[p],
                sim.msgs_sent[p], sim.msgs_recv[p]]
    return out


def test_parallel_scaling(benchmark):
    sc = scale()
    nx = CONFIGS[sc]
    sf, tf = _prepare(nx)
    cores = os.cpu_count() or 1

    def experiment():
        t_serial, sim_s, res_s = _best(sf, tf, 1)
        F_serial = res_s.factors().to_dense()
        base_ledgers = _ledgers(sim_s)
        base_events = dict(sim_s.event_counts)
        out = {"serial_s": round(t_serial, 6)}
        for nw in WORKER_COUNTS:
            t_par, sim_p, res_p = _best(sf, tf, nw)
            identical = all(np.array_equal(a, b) for a, b in
                            zip(base_ledgers, _ledgers(sim_p))) \
                and base_events == dict(sim_p.event_counts)
            assert identical, f"{nw}-worker ledgers diverged from serial"
            diff = float(np.abs(F_serial
                                - res_p.factors().to_dense()).max())
            assert diff <= 1e-12, f"{nw}-worker factors diverged: {diff}"
            out[f"workers_{nw}"] = {
                "time_s": round(t_par, 6),
                "speedup": round(t_serial / t_par, 3),
                "ledgers_identical": identical,
                "factor_max_abs_diff": diff,
                "mean_utilization": round(float(np.mean(
                    [st.utilization for st in res_p.parallel_stats
                     if hasattr(st, "utilization")])), 3),
            }
        out["interpreter_overhead"] = _interpreter_overhead(sf, tf)
        return out

    rec = run_once(benchmark, experiment)
    record = {
        "bench": "bench_parallel_scaling",
        "scale": sc,
        "workload": {"matrix": f"grid2d_5pt({nx})", "grid": f"2x2x{PZ}",
                     "numeric": True, "n_supernodes": sf.nb,
                     "reps_best_of": REPS},
        "host_cores": cores,
        "threshold_4w": MIN_SPEEDUP_4W,
        "threshold_enforced": cores >= 4,
        # Explicit skip marker: consumers of BENCH_parallel.json should
        # never have to infer from host_cores whether the speedup bar was
        # actually applied. None = enforced.
        "skipped": None if cores >= 4 else
                   f"speedup bar not enforced: host has {cores} cores < 4",
        **rec,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(f"parallel z-grid fan-out @ {sc} (pz={PZ}, {cores} host cores, "
          f"best of {REPS}):")
    print(f"  serial   : {rec['serial_s']:.3f}s")
    for nw in WORKER_COUNTS:
        r = rec[f"workers_{nw}"]
        print(f"  {nw} workers: {r['time_s']:.3f}s  -> {r['speedup']:.2f}x  "
              f"(util {r['mean_utilization']:.2f})")
    ov = rec["interpreter_overhead"]
    print(f"  cost-only interpreter overhead: "
          f"{ov['dispatches_unfused']} -> {ov['dispatches_fused']} "
          f"dispatches ({ov['dispatch_reduction']:.2f}x), "
          f"{ov['tasks_per_s_unfused']:.0f} -> "
          f"{ov['tasks_per_s_fused']:.0f} tasks/s")
    print(f"  record written to {OUT.name}")

    if cores >= 4:
        got = rec["workers_4"]["speedup"]
        assert got >= MIN_SPEEDUP_4W, \
            f"4-worker speedup {got} < {MIN_SPEEDUP_4W} on a {cores}-core host"
    else:
        print(f"  ({cores} host cores < 4: speedup bar recorded, "
              "not enforced)")
