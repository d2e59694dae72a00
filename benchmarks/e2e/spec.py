"""What the benchmark measures: workloads, metrics, units, directions, bounds.

This module is the single source of truth that ``BENCHMARK.json`` mirrors
(``python benchmarks/e2e/run.py --print-spec`` regenerates the file's
content; ``test_harness.py`` asserts the two agree). It imports nothing
heavy, so the parent process and ``compare.py`` can load it without numpy.
"""

from __future__ import annotations

import math
import statistics

#: How long one driver run measures (``--seconds`` default), seconds.
RUN_SECONDS = 12

#: Held-out seed: a perf PR tunes on other seeds and must also report this one.
HELD_OUT_SEED = 7

#: (name, one-line reason). Order is the order a full run executes them in.
WORKLOADS = [
    ("brick_cold",
     "cold analyze+factorize+solve of a non-planar 3D brick: dense kernels (lu2d) "
     "are over half the op, so kernel/BLAS work shows here most"),
    ("brick_pool",
     "same inputs and op with FactorOptions(n_workers=2): the only workload where "
     "repro.parallel does work; compare with brick_cold"),
    ("cost_sweep",
     "cost-only Pz sweep of a planar and a non-planar matrix at P=64 (Fig. 9-11 "
     "traffic): no floats touched, a kernel change must show no change"),
    ("timestep_warm",
     "same-pattern refactorize + 8-RHS solve (GLU3.0-style time stepping): plan "
     "replay, so build/compile cost is zero and data rebinding + solves dominate"),
    ("service_mix",
     "2 closed-loop clients on FactorizationService, 6 patterns Zipf(1) over a "
     "4-entry plan cache: hit/miss/eviction, build lock, thread contention"),
    ("cli_circuit",
     "python -m repro solve on a geometry-less circuit .mtx, one process per op: "
     "import time, Matrix Market read and general-graph nested dissection dominate"),
]
WORKLOAD_NAMES = [w for w, _ in WORKLOADS]

#: Relative bound of the simulated ledger metrics. They are outputs of a
#: deterministic simulator and repeat bit-for-bit, so the bound only has to
#: be positive; any real change is many orders of magnitude larger.
EXACT = 1e-9

#: (name, unit, better, bound). Every workload emits every one of these,
#: and none of them is ever 0. The timing bounds are three times the widest
#: run-to-run spread measured on the reference host (README, "Bounds").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("request_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_makespan", "sim_s", "lower", EXACT),
    ("sim_words_max", "words", "lower", EXACT),
    ("sim_mem_peak_max", "words", "lower", EXACT),
]

#: (name, unit, better). Emitted by the traced run of every workload; a
#: metric that does not apply to a workload reads 0 there.
PER_LAYER = [
    # Op phases and ledger statistics that are not defined on all six
    # workloads (see README, "Deviations from the issue").
    ("analyze_s", "s", "lower"),
    ("factor_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("sim_msgs_max", "msgs", "lower"),
    ("sim_solve_makespan", "sim_s", "lower"),
    ("sim_solve_words_max", "words", "lower"),
    # repro.sparse
    ("sparse.read_mtx_s", "s", "lower"),
    ("sparse.permute_s", "s", "lower"),
    ("sparse.from_csr_s", "s", "lower"),
    ("sparse.blocks", "count", "lower"),
    # repro.ordering
    ("ordering.nd_s", "s", "lower"),
    ("ordering.supernodes", "count", "lower"),
    # repro.symbolic
    ("symbolic.fill_s", "s", "lower"),
    ("symbolic.nb", "count", "lower"),
    ("symbolic.factor_words", "words", "lower"),
    # repro.tree
    ("tree.partition_s", "s", "lower"),
    # repro.plan
    ("plan.build_s", "s", "lower"),
    ("plan.tasks", "count", "lower"),
    ("plan.compile_s", "s", "lower"),
    ("plan.dispatches", "count", "lower"),
    ("plan.fusion_ratio", "ratio", "higher"),
    # repro.lu3d + repro.comm
    ("lu3d.exec_cost_s", "s", "lower"),
    ("comm.events", "count", "lower"),
    ("comm.events_per_s", "1/s", "higher"),
    ("lu3d.exec_numeric_s", "s", "lower"),
    ("lu3d.exec_numeric_warm_s", "s", "lower"),
    ("lu3d.replica_setup_s", "s", "lower"),
    ("lu3d.replica_words", "words", "lower"),
    # repro.lu2d
    ("lu2d.kernel_s", "s", "lower"),
    ("lu2d.getrf_s", "s", "lower"),
    ("lu2d.trsm_s", "s", "lower"),
    ("lu2d.gemm_s", "s", "lower"),
    ("lu2d.kernel_calls", "count", "lower"),
    ("lu2d.flops", "flop", "lower"),
    ("lu2d.gflops", "Gflop/s", "higher"),
    ("lu2d.blas_default_env_ratio", "ratio", "lower"),
    # repro.parallel
    ("parallel.wall_s", "s", "lower"),
    ("parallel.task_s", "s", "lower"),
    ("parallel.serial_s", "s", "lower"),
    ("parallel.bytes_shipped", "bytes", "lower"),
    ("parallel.utilization", "ratio", "higher"),
    ("parallel.fallbacks", "count", "lower"),
    ("parallel.speedup_vs_serial", "ratio", "higher"),
    # repro.solve
    ("solve.forward_s", "s", "lower"),
    ("solve.backward_s", "s", "lower"),
    ("solve.refine_s", "s", "lower"),
    ("solve.refine_iters", "count", "lower"),
    ("solve.residual_max", "ratio", "lower"),
    # repro.service
    ("service.hit_ratio", "ratio", "higher"),
    ("service.evictions", "count", "lower"),
    ("service.build_s", "s", "lower"),
    ("service.factor_s", "s", "lower"),
    ("service.solve_s", "s", "lower"),
    ("service.wait_s", "s", "lower"),
    ("service.fingerprint_s", "s", "lower"),
    ("service.ops_per_s_1client", "1/s", "higher"),
    ("service.scaling", "ratio", "higher"),
    # repro.cli
    ("cli.python_start_s", "s", "lower"),
    ("cli.import_deps_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    # harness health
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("calib.probe_s", "s", "lower"),
    ("calib.spread", "ratio", "lower"),
]

#: A per-layer time below this is an empty span: the workload never calls
#: that layer (``child.py`` times an empty span instead of printing 0).
NOT_CALLED_S = 1e-5

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}


def benchmark_json() -> dict:
    """The content of the repository's ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# -- statistics -------------------------------------------------------------

#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of ``n`` samples beyond it."""
    for pct in _TAILS:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return None


def summarize(samples: list[float]) -> dict:
    """``median`` (the gated value), ``n``, and ``tail``/``tail_pct`` when
    the sample supports a tail percentile."""
    if not samples:
        return {"median": 0.0, "n": 0}
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    pct = tail_percentile(len(ordered))
    if pct is not None:
        # Nearest-rank percentile; capped so ten samples lie beyond it.
        rank = min(math.ceil(len(ordered) * pct / 100.0) - 1, len(ordered) - 11)
        out["tail"] = ordered[rank]
        out["tail_pct"] = pct
    return out


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the driver's steadiness measure. With fewer than four values
    (quartiles undefined) it is half the range instead."""
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    if med == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / 2.0 / abs(med)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)
