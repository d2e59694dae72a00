"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``  write a synthetic test matrix (Matrix Market format);
``solve``     factor a matrix and solve against a right-hand side;
``sweep``     run the Fig. 9-style Pz sweep and print the trade-off table;
``tune``      (Px, Py, Pz, c) configuration search, every executable
              candidate measured by its plan's volume;
``report``    regenerate every paper table/figure (EXPERIMENTS.md data).

Matrices read from ``.mtx`` files have no lattice geometry attached, so
ordering falls back to general-graph nested dissection unless ``--grid``
re-supplies the lattice shape ("64", "64,48" or "16,16,8"). ``solve``
additionally accepts ``--grid auto``: the process-grid shape is chosen by
the tuner (``repro tune``) instead of ``--px/--py/--pz``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import (
    FactorizationMetrics,
    PlanStats,
    format_parallel_stats,
    format_plan_summary,
    format_resilience_stats,
    format_table,
)
from repro.comm import Machine
from repro.lu2d.factor2d import FactorOptions
from repro.resilience import FaultPlan
from repro.sparse import (
    GridGeometry,
    arrowhead,
    banded_dense_rows,
    circuit_like,
    grid2d_5pt,
    grid2d_9pt,
    grid3d_7pt,
    grid3d_27pt,
    kkt_like,
    power_law_laplacian,
    read_matrix_market,
    thin_slab_7pt,
    write_matrix_market,
)

GENERATORS = {
    "grid2d_5pt": grid2d_5pt,
    "grid2d_9pt": grid2d_9pt,
    "grid3d_7pt": grid3d_7pt,
    "grid3d_27pt": grid3d_27pt,
    "thin_slab_7pt": thin_slab_7pt,
    "circuit": circuit_like,
    "kkt": kkt_like,
    "arrowhead": arrowhead,
    "banded_dense_rows": banded_dense_rows,
    "powerlaw": power_law_laplacian,
}

__all__ = ["main"]


def _parse_grid(spec: str | None, n: int) -> GridGeometry | None:
    if spec is None or spec == "auto":
        # "auto" is a process-grid directive (handled by cmd_solve), not
        # a lattice shape; ordering falls back to general-graph ND.
        return None
    dims = tuple(int(t) for t in spec.split(","))
    geom = GridGeometry(dims, "cli")
    if n % geom.nvertices != 0:
        raise SystemExit(f"--grid {spec} does not match matrix size {n}")
    return geom


def _load(args) -> tuple:
    A = read_matrix_market(args.matrix)
    return A, _parse_grid(args.grid, A.shape[0])


#: Generators whose structure is randomized (and accept a ``seed``); the
#: lattice stencils are fully determined by their sizes.
SEEDED_GENERATORS = ("circuit", "kkt", "banded_dense_rows", "powerlaw")


def cmd_generate(args) -> int:
    gen = GENERATORS[args.kind]
    sizes = [int(t) for t in args.size.split(",")]
    if args.kind in SEEDED_GENERATORS:
        A, geom = gen(*sizes, seed=args.seed)
    else:
        A, geom = gen(*sizes)
    write_matrix_market(args.out, A)
    if geom is not None:
        print(f"wrote {args.out}: n={A.shape[0]}, nnz={A.nnz}, "
              f"lattice {'x'.join(map(str, geom.shape))}")
        print(f"(pass --grid {','.join(map(str, geom.shape))} to later "
              "commands to re-enable geometric ordering)")
    else:
        print(f"wrote {args.out}: n={A.shape[0]}, nnz={A.nnz}, "
              "no lattice geometry (general-graph ordering)")
    return 0


def cmd_solve(args) -> int:
    A, geom = _load(args)
    if args.grid == "auto":
        _auto_grid(args, A)
    if args.cholesky:
        from repro.cholesky import SparseCholesky3D as Solver
    else:
        from repro.solve import SparseLU3D as Solver
    fault_plan = FaultPlan.parse(args.faults) if args.faults else None
    opts = FactorOptions(n_workers=args.workers, fault_plan=fault_plan,
                         checkpoint_every=args.checkpoint_every,
                         recovery=args.recovery,
                         compact_comm=args.compact,
                         blocking=args.blocking)
    if args.steps:
        return _solve_steps(args, A, geom, opts)
    solver = Solver(A, geometry=geom, px=args.px, py=args.py, pz=args.pz,
                    leaf_size=args.leaf_size, machine=Machine.edison_like(),
                    options=opts)
    solver.factorize()
    n = A.shape[0]
    rng = np.random.default_rng(args.seed)
    b = np.ones(n) if args.rhs == "ones" else rng.standard_normal(n)
    x = solver.solve(b)
    if args.verify_plan and not _verify_plans(solver, fault_plan):
        return 1
    res = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
    m = FactorizationMetrics.from_simulator(solver.sim)
    print(f"n={n}  grid {args.px}x{args.py}x{args.pz}  "
          f"algorithm={'Cholesky' if args.cholesky else 'LU'}")
    print(f"relative residual   : {res:.3e}")
    print(f"modeled factor time : {m.makespan * 1e3:.3f} ms "
          f"(T_scu {m.t_scu * 1e3:.3f}, T_comm {m.t_comm * 1e3:.3f})")
    print(f"per-rank comm volume: {m.w_total_max:.4g} words "
          f"(fact {m.w_fact_max:.4g}, red {m.w_red_max:.4g})")
    print(f"per-rank peak memory: {m.mem_peak_max:.4g} words")
    if args.workers != 1:
        print(format_parallel_stats(solver.result))
    if getattr(solver.result, "resilience", None) is not None:
        print(format_resilience_stats(solver.result.resilience))
    if args.dump_plan:
        stats = PlanStats.from_plan(solver.result.plan,
                                    machine=solver.sim.machine)
        print(format_plan_summary(
            stats, title=f"execution plan ({solver.result.plan.backend})"))
        print(solver.result.plan.fusion_stats().summary())
        for p in solver.solve_plans():
            vol = p.volume(solver.grid.size)
            print(f"solve plan ({'down' if p.down else 'up'}, "
                  f"{'L' if p.lower else 'U'} panels): {p.n_tasks} tasks, "
                  f"{p.ev.src.size} events, "
                  f"{vol.words_per_rank('solve').max():.4g} words/rank/rhs")
    if args.x_out:
        np.savetxt(args.x_out, x)
        print(f"solution written to {args.x_out}")
    return 0 if res < args.tol else 1


def _verify_plans(solver, fault_plan) -> bool:
    """``--verify-plan``: the static analyzer on the factorization plan and
    on each sweep's solve plan, then the conservation oracle — every
    ledger the run booked against the plans' reduction."""
    from repro.verify import analyze_plan, conservation_issues
    solves = solver.solve_plans()
    ok = True
    for label, plan in [("", solver.result.plan)] + [("solve ", p)
                                                     for p in solves]:
        report = analyze_plan(plan, solver.sf)
        print(label + report.summary())
        ok &= report.ok
    if fault_plan is not None:
        print("ledger conservation: skipped (fault injection retransmits "
              "messages, breaking send/recv symmetry by design)")
        return ok
    sweeps = 1 + solver.last_refinement.iterations
    issues = conservation_issues(solver.sim, solver.result.plan,
                                 [(p, 1) for p in solves] * sweeps)
    print("ledger conservation: " + (
        "FAILED\n  " + "\n  ".join(issues) if issues else
        "clean (send/recv symmetric, totals match the plan's reduction, "
        f"{sweeps} x {len(solves)} solve sweeps included)"))
    return ok and not issues


def _auto_grid(args, A) -> None:
    """``--grid auto``: replace --px/--py/--pz with the tuner's choice.

    Total ranks come from --P (or the --px/--py/--pz product when that
    is non-trivial). Numeric solves adopt only the grid *shape* — the
    2.5D replication factor is a cost-only study, so a tuned ``c > 1``
    is reported but not applied.
    """
    from repro.tune import TuneCache, autotune_grid
    P = args.P if args.P else max(args.px * args.py * args.pz, 16)
    cache = TuneCache(args.tune_cache) if args.tune_cache else None
    tr = autotune_grid(A, P, leaf_size=args.leaf_size, cache=cache)
    ch = tr.chosen
    args.px, args.py, args.pz = ch.px, ch.py, ch.pz
    note = f" (tuned c={ch.c} applies to cost-only runs)" if ch.c > 1 else ""
    print(f"auto grid: {ch.label} of {len(tr.candidates)} candidates "
          f"(sigma={tr.sigma:.2f}, {tr.classification}; "
          f"{tr.measured_improvement:.2f}x measured words vs naive "
          f"{tr.baseline.candidate.label}){note}")


def _solve_steps(args, L, geom, opts) -> int:
    """Implicit time-stepping loop through the factorization service.

    Treats the loaded matrix as the operator ``L`` and steps
    ``A_k x_k = x_{k-1}`` with ``A_k = I + dt_k L`` (``dt_k`` grows 2% per
    step so every step carries fresh values over the same pattern — the
    GLU3.0 re-factorization workload). Step 0 pays the symbolic + plan
    build (cold); every later step replays the cached plan (warm). The
    per-step table shows exactly what the cache amortizes.
    """
    import time

    import scipy.sparse as sp

    from repro.service import FactorizationService

    backend = "cholesky" if args.cholesky else "lu"
    n = L.shape[0]
    ident = sp.identity(n, format="csr")
    rng = np.random.default_rng(args.seed)
    x = np.ones(n) if args.rhs == "ones" else rng.standard_normal(n)
    print(f"time-stepping: {args.steps} steps of (I + dt_k L) x_k = x_(k-1), "
          f"dt_0={args.dt:g} (+2%/step), backend={backend}, "
          f"grid {args.px}x{args.py}x{args.pz}")
    walls, hits, worst_resid = [], 0, 0.0
    with FactorizationService(px=args.px, py=args.py, pz=args.pz,
                              backend=backend, options=opts, geometry=geom,
                              leaf_size=args.leaf_size, max_workers=1) as svc:
        for k in range(args.steps):
            dt_k = args.dt * (1.0 + 0.02 * k)
            A_k = (ident + dt_k * L).tocsr()
            t0 = time.perf_counter()
            job = svc.solve(A_k, x)
            wall = time.perf_counter() - t0
            walls.append(wall)
            hits += int(job.cache_hit)
            worst_resid = max(worst_resid, job.residual)
            x = job.x
            print(f"  step {k:3d}  dt={dt_k:.4g}  "
                  f"{'warm' if job.cache_hit else 'cold'}  "
                  f"request {wall * 1e3:8.2f} ms  "
                  f"(build {job.build_seconds * 1e3:7.2f}  "
                  f"factor {job.factor_seconds * 1e3:7.2f}  "
                  f"solve {job.solve_seconds * 1e3:7.2f})  "
                  f"resid {job.residual:.2e}")
        st = svc.stats()
    if len(walls) > 1:
        warm = sum(walls[1:]) / (len(walls) - 1)
        print(f"cold step {walls[0] * 1e3:.2f} ms, mean warm step "
              f"{warm * 1e3:.2f} ms -> {walls[0] / warm:.2f}x; "
              f"cache hit ratio {st['hit_ratio']:.2f} "
              f"({st['hits']} hits / {st['misses']} miss)")
    return 0 if worst_resid < args.tol else 1


def cmd_sweep(args) -> int:
    A, geom = _load(args)
    from repro.experiments.harness import PreparedMatrix, pz_sweep
    from repro.experiments.matrices import TestMatrix
    tm = TestMatrix("cli", A, geom, True, args.leaf_size, 0, 0, 0, 0)
    pm = PreparedMatrix(tm)
    pz_values = tuple(int(t) for t in args.pz.split(","))
    recs = pz_sweep(pm, args.P, pz_values)
    if not recs:
        raise SystemExit(f"no pz in {pz_values} divides P={args.P}")
    base = recs[0].metrics
    rows = [[r.label, r.metrics.makespan * 1e3,
             base.makespan / r.metrics.makespan,
             r.metrics.w_total_max,
             r.metrics.mem_peak_total / base.mem_peak_total]
            for r in recs]
    print(format_table(
        ["grid", "T [ms]", "speedup", "W/rank", "mem x"], rows,
        title=f"Pz sweep, P={args.P} simulated ranks"))
    return 0


def cmd_tune(args) -> int:
    """Configuration search: every executable candidate measured by its
    plan's volume, the Section IV model (seeded by the measured separator
    exponent) reported beside it."""
    from repro.tune import TuneCache, autotune_grid
    A, geom = _load(args)
    cache = TuneCache(args.cache) if args.cache else None
    c_values = None if args.c is None \
        else tuple(int(t) for t in args.c.split(","))
    blockings = tuple(t.strip() for t in args.blocking.split(","))
    res = autotune_grid(A, args.P, geometry=geom,
                        leaf_size=args.leaf_size, c_values=c_values,
                        blockings=blockings, cache=cache)
    print(res.summary())
    rows = []
    for r in res.candidates[:args.top]:
        rows.append([r.candidate.label,
                     "yes" if r.candidate.executable else "model-only",
                     f"{r.predicted_words:.3g}",
                     f"{r.measured_words:.4g}" if r.validated else "-",
                     f"{r.model_error:.2f}" if r.model_error else "-"])
    print(format_table(
        ["grid", "executable", "predicted", "measured W/rank", "model err"],
        rows, title=f"top {min(args.top, len(res.candidates))} of "
                    f"{len(res.candidates)} candidates"))
    if cache is not None:
        print(f"result cached in {args.cache} ({len(cache)} entries)")
    return 0


def cmd_report(args) -> int:
    """Regenerate all paper tables/figures at the chosen scale."""
    from repro.experiments.fig9 import fig9_text, headline_speedups, run_fig9
    from repro.experiments.fig10 import fig10_text, run_fig10
    from repro.experiments.fig11 import fig11_text, run_fig11
    from repro.experiments.fig12 import fig12_text, run_fig12
    from repro.experiments.harness import prepared_suite
    from repro.experiments.table2 import run_table2, table2_text
    from repro.experiments.table3 import run_table3, table3_text

    suite = prepared_suite(args.scale)      # one analysis, shared sweeps
    sections = {
        "table2": lambda: table2_text(run_table2()),
        "table3": lambda: table3_text(run_table3(suite=suite)),
        "fig9": lambda: "\n".join(
            fig9_text(res, P) + "\nheadline best-config speedups: "
            + repr(headline_speedups(res))
            for P, res in ((96, run_fig9(P=96, suite=suite)),
                           (384, run_fig9(P=384, suite=suite)))),
        "fig10": lambda: fig10_text(run_fig10(suite=suite)),
        "fig11": lambda: fig11_text(run_fig11(suite=suite), 96),
        "fig12": lambda: fig12_text(run_fig12(suite=suite)),
    }
    wanted = args.only.split(",") if args.only else list(sections)
    unknown = set(wanted) - set(sections)
    if unknown:
        raise SystemExit(f"unknown sections: {sorted(unknown)}; "
                         f"available: {sorted(sections)}")
    for name in wanted:
        print(f"\n===== {name} =====")
        print(sections[name]())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Communication-avoiding 3D sparse LU (IPDPS'18 "
                    "reproduction) on a simulated process grid")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic test matrix")
    g.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    g.add_argument("--size", required=True,
                   help="generator sizes, comma-separated (e.g. 64 or 32,32,4)")
    g.add_argument("--out", required=True, help="output .mtx path")
    g.add_argument("--seed", type=int, default=0,
                   help="RNG seed for the randomized generators "
                        f"({', '.join(SEEDED_GENERATORS)}); the lattice "
                        "stencils ignore it")
    g.set_defaults(fn=cmd_generate)

    def common(sp, with_grid=True):
        sp.add_argument("matrix", help="MatrixMarket .mtx file")
        if with_grid:
            sp.add_argument("--grid", default=None,
                            help="lattice shape for geometric ordering, "
                                 "e.g. 64,64")
        sp.add_argument("--leaf-size", type=int, default=64)

    s = sub.add_parser("solve", help="factor and solve")
    common(s)
    s.add_argument("--px", type=int, default=1)
    s.add_argument("--py", type=int, default=1)
    s.add_argument("--pz", type=int, default=1)
    s.add_argument("--P", type=int, default=0,
                   help="total ranks for --grid auto (default: the "
                        "--px/--py/--pz product, floored at 16)")
    s.add_argument("--tune-cache", default=None,
                   help="JSON tuning-cache path consulted/updated by "
                        "--grid auto")
    s.add_argument("--rhs", choices=("ones", "random"), default="ones")
    s.add_argument("--seed", type=int, default=0,
                   help="RNG seed for --rhs random")
    s.add_argument("--faults", default=None,
                   help="deterministic fault plan, e.g. "
                        "'crash:grid=0,level=1;slow:rank=3,factor=4'; "
                        "kinds: crash, drop, delay, slow")
    s.add_argument("--checkpoint-every", type=int, default=0,
                   help="coordinated checkpoint every N interpreted tasks "
                        "(0 = off); I/O cost is charged to the machine "
                        "model")
    s.add_argument("--recovery", choices=("restart", "z-replica"),
                   default="restart",
                   help="crash recovery policy: roll every grid back to "
                        "the last checkpoint, or rebuild only the crashed "
                        "grid from its sibling z-replicas")
    s.add_argument("--cholesky", action="store_true",
                   help="use the SPD Cholesky engine")
    s.add_argument("--workers", type=int, default=1,
                   help="host worker processes for the per-level grid "
                        "fan-out (0 = one per core, 1 = serial); ledgers "
                        "and factors are identical at any setting")
    s.add_argument("--blocking", choices=("uniform", "irregular"),
                   default="uniform",
                   help="supernode-boundary strategy: 'uniform' caps "
                        "blocks at equal widths; 'irregular' derives "
                        "boundaries from the pattern (dense-row boundary "
                        "snapping + similarity amalgamation, never more "
                        "factor words than uniform)")
    s.add_argument("--compact", action="store_true",
                   help="price block messages and replica storage with the "
                        "sparsity-aware compact model (repro.comm.volume): "
                        "min(dense, 1.5*nnz) words per block; factors are "
                        "identical, only the communication/storage ledgers "
                        "change")
    s.add_argument("--verify-plan", action="store_true",
                   help="after factorization, run the static plan analyzer "
                        "(races, cycles, malformed collectives, task "
                        "arrays vs their records) on the executed plan, "
                        "then the ledger-conservation oracle; non-zero "
                        "exit on any finding")
    s.add_argument("--dump-plan", action="store_true",
                   help="print the execution plan's task-kind totals and "
                        "critical-path length (tasks + modeled alpha-beta "
                        "cost)")
    s.add_argument("--steps", type=int, default=0,
                   help="run an implicit time-stepping loop instead of a "
                        "single solve: N steps of (I + dt_k L) x_k = "
                        "x_(k-1) with the loaded matrix as L, routed "
                        "through the factorization service's plan cache; "
                        "prints per-step cold/warm timings")
    s.add_argument("--dt", type=float, default=1e-3,
                   help="base time-step for --steps (grows 2%% per step "
                        "so every step refactorizes fresh values)")
    s.add_argument("--tol", type=float, default=1e-8,
                   help="residual threshold for exit status")
    s.add_argument("--x-out", default=None, help="write solution vector here")
    s.set_defaults(fn=cmd_solve)

    w = sub.add_parser("sweep", help="Pz sweep (Fig. 9-style table)")
    common(w)
    w.add_argument("--P", type=int, default=96, help="total simulated ranks")
    w.add_argument("--pz", default="1,2,4,8,16",
                   help="comma-separated Pz values")
    w.set_defaults(fn=cmd_sweep)

    tu = sub.add_parser("tune",
                        help="measured (Px,Py,Pz,c) grid search")
    common(tu)
    tu.add_argument("--P", type=int, default=96,
                    help="total simulated ranks to factor over")
    tu.add_argument("--c", default=None,
                    help="comma list of 2.5D replication factors to try "
                         "(default: all powers of two up to each Pz)")
    tu.add_argument("--blocking", default="uniform",
                    help="comma list of blocking strategies to cross into "
                         "the search space (uniform, irregular)")
    tu.add_argument("--top", type=int, default=10,
                    help="rows to print in the candidate table")
    tu.add_argument("--cache", default=None,
                    help="JSON tuning-cache path to consult and update")
    tu.set_defaults(fn=cmd_tune)

    r = sub.add_parser("report",
                       help="regenerate every paper table and figure")
    r.add_argument("--scale", choices=("tiny", "small", "medium"),
                   default="small")
    r.add_argument("--only", default=None,
                   help="comma-separated subset, e.g. table2,fig10")
    r.set_defaults(fn=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
