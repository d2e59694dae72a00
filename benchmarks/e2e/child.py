"""One workload in one process: set up, measure, reduce, print one JSON line.

Started by ``run.py`` with the pinned environment (BLAS threads, hash seed,
no ``REPRO_*``); not meant to be run by hand. ``--trace 0`` runs the ops as
a user issues them; ``--trace 1`` spends part of the time on those and the
rest on the decomposed ops and the run-once layer measurements, and writes
the spans to ``out/trace_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

T_ENTER = time.time()

import numpy as np  # noqa: E402  (imports are part of the measured set-up)
import scipy  # noqa: E402
from calib import CALIB_REF_S, Clock, Recorder  # noqa: E402
from spec import PER_LAYER, spread  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

#: Root kinds whose spans and notes feed the per-layer metrics.
LAYER_ROOTS = ("traced", "diag")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Reduced:
    """Per-op sums of span self time and of notes, grouped by root kind."""

    def __init__(self, wl):
        self.wl = wl
        self.dur = wl.rec.durations()
        self.roots = [s for s in wl.rec.spans if s["parent"] is None]
        self.kind = {s["op"]: s["name"] for s in self.roots}
        self.kids: dict[int, list[dict]] = {}
        self.norm: dict[str, dict[int, float]] = {}
        for s in wl.rec.spans:
            if s["parent"] is not None:
                self.kids.setdefault(s["parent"], []).append(s)
                per_op = self.norm.setdefault(s["name"], {})
                per_op[s["op"]] = per_op.get(s["op"], 0.0) + self.dur[s["id"]]["self_norm"]
        # Seconds the program reported itself, rescaled like their span.
        for name, span, value in wl.scaled:
            d = self.dur[span["id"]]
            per_op = self.norm.setdefault(name, {})
            per_op[span["op"]] = per_op.get(span["op"], 0.0) + (
                value * d["norm"] / d["raw"] if d["raw"] > 0 else 0.0)

    def per_op(self, table: dict, name: str, kinds) -> list[float]:
        return [v for op, v in table.get(name, {}).items() if self.kind[op] in kinds]

    def seconds(self, name: str, kinds=LAYER_ROOTS) -> list[float]:
        """Normalised per-op seconds spent in spans called ``name``."""
        return self.per_op(self.norm, name, kinds)

    def notes(self, name: str, kinds=LAYER_ROOTS + ("request",)) -> list[float]:
        return self.per_op(self.wl.notes, name, kinds)

    def root_seconds(self, kind: str, key: str = "norm") -> list[float]:
        return [self.dur[s["id"]][key] for s in self.roots if s["name"] == kind]

    def ops_per_s(self, kind: str, clients: int) -> float:
        n, busy = self.wl.busy_norm(self.dur, kind)
        return clients * n / busy if busy > 0 else 0.0

    def coverage(self) -> float:
        """Share of an op's time that lies inside layer spans."""
        kind = "traced" if "traced" in self.kind.values() else "request"
        shares = []
        for root in (s for s in self.roots if s["name"] == kind):
            kids = self.kids.get(root["id"], [])
            layers = sum(self.dur[s["id"]]["norm"] for s in kids if "." in s["name"])
            check = sum(self.dur[s["id"]]["norm"] for s in kids if s["name"] == "check")
            total = self.dur[root["id"]]["norm"] - check
            if total > 0:
                shares.append(layers / total)
        return median(shares)


def per_layer_values(wl, red: Reduced) -> dict[str, float]:
    v = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    # Op phases, timed on the ops as a user issues them.
    for phase in ("analyze", "factor", "solve"):
        v[f"{phase}_s"] = median(red.seconds(phase, ("request",)))
    v["failed_frac"] = len(wl.failures) / max(wl.attempted, 1)
    for key in ("sim_msgs_max", "sim_solve_makespan", "sim_solve_words_max", "lu2d.flops"):
        v[key] = float(wl.sim.get(key, 0.0))
    # One span name per layer timing: ``ordering.nd`` -> ``ordering.nd_s``.
    for name in v:
        if name.endswith("_s") and name[:-2] in red.norm and "." in name:
            v[name] = median(red.seconds(name[:-2]))
    for name in ("sparse.blocks", "ordering.supernodes", "symbolic.nb", "symbolic.factor_words",
                 "plan.tasks", "plan.dispatches", "comm.events", "lu3d.replica_words",
                 "lu2d.kernel_calls", "solve.refine_iters", "parallel.bytes_shipped"):
        v[name] = median(red.notes(name))
    tasks = sum(red.notes("plan.tasks"))
    v["plan.fusion_ratio"] = sum(red.notes("plan.members")) / tasks if tasks else 0.0
    if v["lu3d.exec_cost_s"] > 0:
        v["comm.events_per_s"] = v["comm.events"] / v["lu3d.exec_cost_s"]
    # Kernel time = numeric execution minus everything that is not a kernel.
    if v["lu3d.exec_numeric_s"] > 0:
        other = v["lu3d.exec_cost_s"] + v["sparse.from_csr_s"] + v["lu3d.replica_setup_s"]
        v["lu2d.kernel_s"] = max(v["lu3d.exec_numeric_s"] - other, 0.0)
    elif v["lu3d.exec_numeric_warm_s"] > 0:
        other = v["lu3d.exec_cost_s"] + v["sparse.from_csr_s"]
        v["lu2d.kernel_s"] = max(v["lu3d.exec_numeric_warm_s"] - other, 0.0)
    if v["lu2d.kernel_s"] > 0:
        v["lu2d.gflops"] = v["lu2d.flops"] / v["lu2d.kernel_s"] / 1e9
    # repro.parallel: LevelStats of the ops that fanned out.
    for name in ("parallel.wall_s", "parallel.task_s", "parallel.serial_s"):
        v[name] = median(red.seconds(name, ("request", "traced")))
    capacity = sum(red.notes("parallel.capacity_s"))
    v["parallel.utilization"] = sum(red.notes("parallel.busy_s")) / capacity if capacity else 0.0
    v["parallel.fallbacks"] = float(sum(red.notes("parallel.fallbacks")))
    serial = median(red.seconds("factor", ("serial",)))
    if serial > 0 and v["factor_s"] > 0:
        v["parallel.speedup_vs_serial"] = serial / v["factor_s"]
    v["solve.residual_max"] = max(red.notes("solve.residual"), default=0.0)
    v.update(wl.layer_values(red))
    # Harness health.
    traced, plain = red.root_seconds("traced"), red.root_seconds("request")
    if traced and plain:
        v["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    v["trace.coverage_frac"] = red.coverage()
    v["calib.probe_s"] = median(wl.rec.clock.values)
    v["calib.spread"] = spread(wl.rec.clock.values)
    # A layer this workload never calls has no span. Its time is reported as
    # the measured cost of an empty span (well under a microsecond), never as
    # a literal 0: every time the benchmark prints is a measurement.
    empty = Recorder(wl.rec.clock)
    for name, unit, _ in PER_LAYER:
        if unit == "s" and v[name] == 0:
            with empty.op(name, probe=False) as s:
                pass
            v[name] = (s["end"] - s["start"]) * wl.rec.clock.scale(s["start"], s["end"])
    return v


def write_trace(wl, red: Reduced) -> str:
    t0 = min(s["start"] for s in wl.rec.spans)
    spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0,
                  self_s=red.dur[s["id"]]["self_norm"], norm_s=red.dur[s["id"]]["norm"])
             for s in wl.rec.spans]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{wl.name}.json"
    path.write_text(json.dumps({"workload": wl.name, "seed": wl.seed, "spans": spans}))
    return str(path)


def versions() -> dict:
    import networkx
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    t_spawn = float(os.environ.get("E2E_T0", T_ENTER))

    cls = WORKLOADS[args.workload]
    clock = Clock(cls.probe_passes)
    wl = cls(args.seed, args.quick, Recorder(clock))
    clock.probe(3)          # three passes: nothing ran before it, or after
    try:
        wl.setup()
        clock.probe(3)
        setup_raw = time.time() - t_spawn
        if args.trace:
            wl.setup_traced()
        wl.begin_measurement()
        if args.trace:
            wl.run(0.4 * args.seconds)
            wl.run_traced(0.45 * args.seconds)
            wl.extras()
        else:
            wl.run(args.seconds)
        clock.probe()
        rss = wl.peak_rss_mb()
    finally:
        wl.close()

    red = Reduced(wl)
    ops, busy = wl.busy_norm(red.dur, "request")
    # Set-up is mostly process start and imports, before any probe can run:
    # it is scaled by the median probe of the whole child, not by the two or
    # three probes of set-up itself (ten-seed spread 6-14 % instead of 7-20 %).
    setup_norm = setup_raw * CALIB_REF_S / median(clock.values)
    out = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "attempted": wl.attempted, "failed": len(wl.failures), "failures": wl.failures[:5],
        "setup": {"raw_s": setup_raw, "norm_s": setup_norm},
        "request_s": wl.request_samples(red.dur, "norm"),
        "request_raw_s": wl.request_samples(red.dur, "raw"),
        "ops": ops, "busy_s": busy,
        "clients": wl.clients,
        "peak_rss_mb": rss,
        "sim": {k: float(wl.sim[k]) for k in
                ("sim_makespan", "sim_words_max", "sim_mem_peak_max")},
        "probe_s": median(clock.values),
        "versions": versions(),
    }
    if args.trace:
        out["per_layer"] = per_layer_values(wl, red)
        out["trace_file"] = write_trace(wl, red)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
