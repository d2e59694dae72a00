"""End-to-end + per-layer benchmark of the repository (see README.md here).

    python benchmarks/e2e/run.py [--seed N] [--workload NAME ...] [--quick] [--out FILE]

runs the six workloads, first as a user issues them (end-to-end metrics),
then decomposed layer by layer (per-layer metrics), prints every metric by
name with its unit, checks every output, and exits non-zero if any op
failed. The benchmark driver calls it per workload instead:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

and reads the JSON object on the last line of standard output.

This process only orchestrates: each measurement runs in a child process
(``child.py``) under a pinned environment, so BLAS threading, hash seeds and
stray ``REPRO_*`` variables cannot leak into the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Applied to every child. One BLAS thread: the blocks are far below the
#: multithreading break-even, and with the inherited 2 threads the same op
#: is ~4x slower and does not repeat (``lu2d.blas_default_env_ratio``).
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}

#: Child processes per untraced run: each sets up on its own (``setup_s`` is
#: their median) and measures a third of the time; their ops are pooled.
REPEATS = 3


def child_env(inherit_blas: bool = False) -> tuple[dict, dict]:
    """The environment of a child, and a record of what was found/applied."""
    found = {k: os.environ.get(k) for k in PINNED}
    scrubbed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env = {k: v for k, v in os.environ.items()
           if k not in scrubbed and k != "PYTHONDONTWRITEBYTECODE"}
    applied = dict(PINNED)
    if inherit_blas:
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            applied[k] = found[k]
    for k, v in applied.items():
        env.pop(k, None)
        if v is not None:
            env[k] = v
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env, {"found": found, "applied": applied, "scrubbed": scrubbed}


def build() -> None:
    """Byte-compile the program and the harness once, so that no run pays
    (or, with bytecode writing disabled, every run pays) the compile."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/e2e: the program is missing ({SRC / 'repro'} not found); "
                 "run from a checkout of the repository")
    env, _ = child_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro"), str(HERE)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def spawn(workload: str, seed: int, seconds: float, trace: int, quick: bool,
          inherit_blas: bool = False) -> dict:
    env, _ = child_env(inherit_blas)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:.3f}", "--trace", str(trace)] + (["--quick"] if quick else [])
    env["E2E_T0"] = repr(time.time())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmarks/e2e: {workload} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(name: str, value: float, **extra) -> dict:
    return {"value": value, "unit": spec.UNITS[name], **extra}


def measure_end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    repeats = 1 if quick else REPEATS
    kids = [spawn(workload, seed, seconds / repeats, 0, quick) for _ in range(repeats)]
    pooled = [v for k in kids for v in k["request_s"]]
    pooled_raw = [v for k in kids for v in k["request_raw_s"]]
    req = spec.summarize(pooled)
    clients = kids[0]["clients"]

    def across(fn) -> float:
        return spec.spread([fn(k) for k in kids])

    m = {
        "setup_s": metric("setup_s", statistics.median(k["setup"]["norm_s"] for k in kids),
                          raw=statistics.median(k["setup"]["raw_s"] for k in kids),
                          n=repeats, spread=across(lambda k: k["setup"]["norm_s"])),
        "request_s": metric("request_s", req.pop("median"), raw=statistics.median(pooled_raw),
                            spread=across(lambda k: statistics.median(k["request_s"])), **req),
        "ops_per_s": metric("ops_per_s",
                            clients * sum(k["ops"] for k in kids) / sum(k["busy_s"] for k in kids),
                            n=sum(k["ops"] for k in kids), clients=clients,
                            spread=across(lambda k: clients * k["ops"] / k["busy_s"])),
        "peak_rss_mb": metric("peak_rss_mb", statistics.median(k["peak_rss_mb"] for k in kids),
                              n=repeats, spread=across(lambda k: k["peak_rss_mb"])),
    }
    failures = [f for k in kids for f in k["failures"]]
    for name in kids[0]["sim"]:
        values = {k["sim"][name] for k in kids}
        if len(values) != 1:
            failures.append(f"{name} differs between repeats: {sorted(values)}")
        m[name] = metric(name, kids[0]["sim"][name], spread=0.0)
    attempted = sum(k["attempted"] for k in kids)
    failed = sum(k["failed"] for k in kids)
    return {"workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
            "correct": not failures, "failures": failures[:5], "metrics": m,
            "versions": kids[0]["versions"], "probe_s": [k["probe_s"] for k in kids]}


def measure_per_layer(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    kid = spawn(workload, seed, seconds, 1, quick)
    values = kid["per_layer"]
    if workload == "brick_cold":
        # The same op under the BLAS threading this process inherited, over
        # the pinned op, raw wall-clock both (base: pinned median).
        loose = spawn(workload, seed, min(5.0, seconds / 2), 0, quick, inherit_blas=True)
        kid["failures"] += loose["failures"]
        values["lu2d.blas_default_env_ratio"] = (
            statistics.median(loose["request_raw_s"]) / statistics.median(kid["request_raw_s"]))
    return {"workload": workload, "seed": seed, "attempted": kid["attempted"],
            "failed": kid["failed"], "correct": not kid["failures"],
            "failures": kid["failures"],
            "metrics": {name: metric(name, values[name]) for name, _, _ in spec.PER_LAYER},
            "trace_file": kid["trace_file"]}


# -- output -----------------------------------------------------------------

def fmt(v: float) -> str:
    return f"{v:.6g}"


def print_result(res: dict) -> None:
    print(f"\n{res['workload']} (seed {res['seed']}): {res['attempted']} ops attempted, "
          f"{res['failed']} failed{'' if res['correct'] else ' -- INCORRECT'}")
    for reason in res["failures"]:
        print(f"  failure: {reason}")
    zeros = 0
    for name, m in res["metrics"].items():
        if name not in spec.BOUNDS and (
                m["value"] == 0 or (m["unit"] == "s" and m["value"] < spec.NOT_CALLED_S)):
            zeros += 1          # a layer this workload never calls
            continue
        extra = []
        if "raw" in m:
            extra.append(f"raw {fmt(m['raw'])}")
        if "n" in m:
            extra.append(f"n={m['n']}")
        if "tail" in m:
            extra.append(f"p{m['tail_pct']:g} {fmt(m['tail'])}")
        if m.get("spread"):
            extra.append(f"spread {m['spread']:.3f}")
        print(f"  {name:30s} {fmt(m['value']):>12s} {m['unit']:8s} {'  '.join(extra)}")
    if zeros:
        print(f"  ({zeros} per-layer metrics of layers this workload never calls are not shown)")


def contract_line(res: dict) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in res["metrics"].items()}})


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=spec.WORKLOAD_NAMES,
                    default=spec.WORKLOAD_NAMES, metavar="NAME")
    ap.add_argument("--seed", type=int, default=0,
                    help=f"input seed (default 0; held-out seed {spec.HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured time per pass (default {spec.RUN_SECONDS}; --quick 0.4)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end pass only; 1: per-layer pass only; default both")
    ap.add_argument("--quick", action="store_true", help="tiny inputs, same code paths")
    ap.add_argument("--out", default=None, help="write the full record to this JSON file")
    ap.add_argument("--print-spec", action="store_true",
                    help="print the content of BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.print_spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    seconds = args.seconds if args.seconds is not None \
        else (0.4 if args.quick else float(spec.RUN_SECONDS))

    build()
    _, env = child_env()
    for k, v in env["scrubbed"].items():
        print(f"note: {k}={v!r} found in the environment and scrubbed; "
              "the benchmark never honours REPRO_* variables")
    record = {"schema": 1, "seed": args.seed, "seconds": seconds, "quick": args.quick,
              "env": dict(env, nproc=os.cpu_count(), platform=platform.platform(),
                          git_commit=git_commit()),
              "workloads": {}}
    results = []
    for w in args.workload:
        entry = record["workloads"].setdefault(w, {})
        if args.trace in (None, 0):
            res = measure_end_to_end(w, args.seed, seconds, args.quick)
            record["env"]["versions"] = res.pop("versions")
            entry["end_to_end"] = res
            results.append(res)
            print_result(res)
        if args.trace in (None, 1):
            res = measure_per_layer(w, args.seed, seconds, args.quick)
            entry["per_layer"] = res
            results.append(res)
            print_result(res)

    # brick_pool must book exactly the ledger brick_cold books.
    cold, pool = (record["workloads"].get(w, {}).get("end_to_end")
                  for w in ("brick_cold", "brick_pool"))
    if cold and pool:
        for name, m in cold["metrics"].items():
            if name.startswith("sim_") and m["value"] != pool["metrics"][name]["value"]:
                pool["correct"] = False
                pool["failures"].append(f"{name} differs from brick_cold")
                print(f"brick_pool: {name} differs from brick_cold -- INCORRECT")

    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    if len(results) == 1:
        print(contract_line(results[0]))
    else:
        print(f"\n{'all workloads correct' if ok else 'FAILED: see the failures above'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
