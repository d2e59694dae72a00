"""Self-test of the benchmark harness: ``python -m pytest benchmarks/e2e -q``.

Not collected by tier-1 (its ``testpaths`` is ``tests``). Runs the whole
benchmark once in ``--quick`` mode (~20 s) and checks the schema, the
span trees, the gate, the tail rule, ``compare.py`` and the contract with
the benchmark driver.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import spec  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def run(*args, env=None, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=600)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    """One full ``--quick`` run; ``REPRO_COMPILE=0`` must be scrubbed."""
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = run("--quick", "--out", str(out), env=dict(os.environ, REPRO_COMPILE="0"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "REPRO_COMPILE" in proc.stdout and "scrubbed" in proc.stdout
    return json.loads(out.read_text())


# -- BENCHMARK.json and the metric tables -----------------------------------

def test_benchmark_json_mirrors_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    name_rx = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_rx = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names)) and all(name_rx.match(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert unit_rx.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert unit_rx.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s with set-up.
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 8) < 3420


def test_every_metric_present_with_unit(quick):
    assert set(quick["workloads"]) == set(spec.WORKLOAD_NAMES)
    for w, entry in quick["workloads"].items():
        for section, table in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
            res = entry[section]
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (w, res)
            assert list(res["metrics"]) == [name for name, *_ in table]
            for name, unit, *_ in table:
                m = res["metrics"][name]
                assert m["unit"] == unit and isinstance(m["value"], (int, float)), (w, name)
        for name, m in entry["end_to_end"]["metrics"].items():
            assert m["value"] > 0, f"{w}: end-to-end metric {name} must never be 0"
        assert entry["per_layer"]["metrics"]["trace.coverage_frac"]["value"] >= 0.9, w


def test_env_block_records_pinning_and_scrubbing(quick):
    env = quick["env"]
    assert env["scrubbed"] == {"REPRO_COMPILE": "0"}
    assert env["applied"]["OPENBLAS_NUM_THREADS"] == "1" and "found" in env
    assert {"python", "numpy", "scipy", "networkx", "blas"} <= set(env["versions"])
    assert env["nproc"] >= 1 and env["platform"]
    # REPRO_COMPILE=0 was not honoured: the compiled plan fused tasks.
    layers = quick["workloads"]["brick_cold"]["per_layer"]["metrics"]
    assert layers["plan.dispatches"]["value"] < layers["plan.tasks"]["value"]


def test_predicted_contrasts(quick):
    def layer(w, name):
        return quick["workloads"][w]["per_layer"]["metrics"][name]["value"]

    def called(w, name):        # a never-called layer reads an empty span
        return layer(w, name) >= spec.NOT_CALLED_S

    # Replay builds nothing; cost-only runs no kernel; only the pool fans out.
    assert not called("timestep_warm", "plan.build_s")
    assert not called("timestep_warm", "plan.compile_s") and called("brick_cold", "plan.compile_s")
    assert not called("cost_sweep", "lu2d.kernel_s") and called("brick_cold", "lu2d.kernel_s")
    assert called("brick_pool", "parallel.wall_s") and not called("brick_cold", "parallel.wall_s")
    # ... but never a literal 0: every printed time is a measurement.
    assert all(m["value"] > 0 for w in quick["workloads"].values()
               for m in w["per_layer"]["metrics"].values() if m["unit"] == "s")
    assert layer("brick_pool", "parallel.speedup_vs_serial") > 0
    assert layer("service_mix", "service.scaling") > 0
    assert layer("service_mix", "service.evictions") > 0     # 6 patterns, 4 entries
    assert layer("cli_circuit", "cli.import_s") > layer("cli_circuit", "cli.python_start_s") > 0
    assert layer("brick_cold", "lu2d.blas_default_env_ratio") > 0


def test_pool_books_the_serial_ledger(quick):
    cold, pool = (quick["workloads"][w] for w in ("brick_cold", "brick_pool"))
    for section in ("end_to_end", "per_layer"):
        for name, m in cold[section]["metrics"].items():
            if name.startswith("sim_"):
                assert m["value"] == pool[section]["metrics"][name]["value"], name


# -- statistics -------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    for n in list(range(1, 60)) + [99, 100, 101, 199, 200, 1000, 5000, 20000]:
        s = spec.summarize([float(i) for i in range(n)])
        assert s["n"] == n
        if n < 40:
            assert "tail" not in s and "tail_pct" not in s
        else:
            beyond = sum(1 for i in range(n) if i > s["tail"])
            assert beyond >= 10, (n, s)
            higher = [p for p in (75.0, 90.0, 95.0, 99.0, 99.9) if p > s["tail_pct"]]
            assert all(n * (100 - p) / 100 < 10 for p in higher), (n, s)


def test_spread_matches_the_drivers_formula():
    import statistics
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 1.02, 0.98, 1.01]
    q = statistics.quantiles(values, n=4)
    assert spec.spread(values) == pytest.approx((q[2] - q[0]) / statistics.median(values))
    assert spec.spread([2.0, 2.0, 2.0]) == 0 and spec.spread([1.0]) == 0


# -- spans ------------------------------------------------------------------

def test_span_trees_are_well_formed(quick):
    for w, entry in quick["workloads"].items():
        spans = json.loads(Path(entry["per_layer"]["trace_file"]).read_text())["spans"]
        by_id = {s["id"]: s for s in spans}
        assert len(by_id) == len(spans) and spans
        roots = [s for s in spans if s["parent"] is None]
        assert len({s["op"] for s in roots}) == len(roots), f"{w}: one op id per request"
        for s in spans:
            assert set(s) >= {"id", "parent", "op", "name", "start", "end"}
            assert s["end"] >= s["start"] and s["self_s"] >= 0 and s["norm_s"] >= s["self_s"] >= 0
            if s["parent"] is not None:
                p = by_id[s["parent"]]
                assert p["op"] == s["op"] and p["id"] < s["id"]
                assert p["start"] <= s["start"] and s["end"] <= p["end"], (w, s, p)
        # Siblings of one thread do not overlap, so self time is well defined.
        for p in spans:
            kids = sorted((s for s in spans if s["parent"] == p["id"]), key=lambda s: s["start"])
            assert all(a["end"] <= b["start"] for a, b in zip(kids, kids[1:])), (w, p["name"])


def test_recorder_self_time_excludes_children_and_probes():
    import calib
    rec = calib.Recorder(calib.Clock())
    with rec.op("request") as root:
        with rec.span("a") as a:
            with rec.span("a.inner") as inner:
                calib.probe()       # stands for the layer's work
        rec.clock.probe()           # a calibration sample between two children
        with rec.span("b", probe=False):
            pass
    d = rec.durations()
    assert d[a["id"]]["self_raw"] == pytest.approx(d[a["id"]]["raw"] - d[inner["id"]]["raw"])
    assert d[root["id"]]["norm"] == pytest.approx(
        d[root["id"]]["self_norm"] + sum(d[s["id"]]["norm"] for s in rec.spans
                                         if s["parent"] == root["id"]))
    probes = rec.clock.probe_time_within(root["start"], root["end"])
    assert probes > 0
    assert d[root["id"]]["raw"] == pytest.approx(root["end"] - root["start"] - probes)


# -- the gate bites ---------------------------------------------------------

def test_gate_rejects_wrong_x_ledger_mismatch_and_fallback():
    import numpy as np
    import workloads
    from repro.parallel import ParallelFallback

    A, _ = workloads.grid2d_5pt(8)
    x = np.arange(1.0, A.shape[0] + 1)
    b = A @ x
    ledger = {"clock": [1.0, 2.0], "event_counts": {"send": 3}}
    assert workloads.gate(A, b, x, ledger, copy.deepcopy(ledger)) is None
    wrong = x.copy()
    wrong[3] += 1e-6
    assert "residual" in workloads.gate(A, b, wrong, ledger, ledger)
    assert "finite" in workloads.gate(A, b, x * np.nan, ledger, ledger)
    assert "ledger" in workloads.gate(A, b, x, ledger, {"clock": [1.0, 2.0],
                                                       "event_counts": {"send": 4}})
    fallback = ParallelFallback(reason="simulator cannot fork", requested_workers=2,
                                backend="process")
    assert "fallback" in workloads.gate(A, b, x, ledger, ledger, [fallback])
    with pytest.raises(RuntimeError, match="splu"):
        workloads.check_reference(A, b, wrong + 1.0)


def test_failed_ops_are_counted_and_fail_the_run():
    import calib
    import workloads

    class Broken(workloads.Workload):
        name = "broken"
        calls = 0

        def op(self):
            self.calls += 1
            if self.calls == 2:
                raise ValueError("boom")
            return "wrong answer" if self.calls == 3 else None

    wl = Broken(0, True, calib.Recorder(calib.Clock()))
    for _ in range(4):
        wl.attempt(wl.op)
    assert wl.attempted == 4 and len(wl.failures) == 2
    assert "ValueError" in wl.failures[0] and wl.failures[1] == "wrong answer"
    with pytest.raises(RuntimeError, match="warm-up"):
        wl.begin_measurement()


# -- compare.py -------------------------------------------------------------

def verdicts(a, b) -> dict:
    return {(r["workload"], r["metric"]): r["verdict"] for r in compare.rows(a, b)}


def test_compare_flags_regressions(quick, tmp_path, capsys):
    same = verdicts(quick, quick)
    assert ("brick_cold", "request_s") in same and ("brick_cold", "sim_msgs_max") in same
    assert len(same) == 6 * (len(spec.END_TO_END) + 3)
    # A quick run has one repeat, so no spread: everything resolves.
    assert set(same.values()) == {"ok"}

    slow = copy.deepcopy(quick)
    over = 0.05     # how far past its bound a synthetic regression goes

    def e2e(w, name):
        return slow["workloads"][w]["end_to_end"]["metrics"][name]

    e2e("cost_sweep", "request_s")["value"] *= 1 + spec.BOUNDS["request_s"] + over
    e2e("timestep_warm", "request_s")["value"] *= 1 + spec.BOUNDS["request_s"] - over
    e2e("service_mix", "ops_per_s")["value"] *= 1 - spec.BOUNDS["ops_per_s"] - over
    slow["workloads"]["brick_cold"]["per_layer"]["metrics"]["sim_msgs_max"]["value"] += 1
    e2e("brick_pool", "request_s")["value"] *= 0.5
    e2e("cli_circuit", "request_s")["spread"] = spec.BOUNDS["request_s"] + over
    got = verdicts(quick, slow)
    assert got[("cost_sweep", "request_s")] == "worse"
    assert got[("timestep_warm", "request_s")] == "ok"        # within the bound
    assert got[("service_mix", "ops_per_s")] == "worse"       # higher is better
    assert got[("brick_cold", "sim_msgs_max")] == "worse"     # exact bound
    assert got[("brick_pool", "request_s")] == "ok"           # faster is fine
    assert got[("cli_circuit", "request_s")] == "unresolved"
    assert sum(v == "worse" for v in got.values()) == 3

    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(quick))
    pb.write_text(json.dumps(slow))
    assert compare.main([str(pa), str(pa)]) == 0
    assert compare.main([str(pa), str(pb)]) == 1
    assert "3 worse, 1 unresolved" in capsys.readouterr().out


# -- seeds and the driver's contract ----------------------------------------

def test_sim_metrics_do_not_depend_on_the_seed(quick, tmp_path):
    out = tmp_path / "held_out.json"
    proc = run("--quick", "--trace", "0", "--seed", str(spec.HELD_OUT_SEED), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    held = json.loads(out.read_text())
    for (w, name), verdict in verdicts(quick, held).items():
        if name.startswith("sim_"):
            assert verdict == "ok", f"{w}: {name} moved with the seed"
    # Other inputs, though: timings are not bit-identical across seeds.
    assert any(quick["workloads"][w]["end_to_end"]["metrics"]["request_s"]["value"]
               != held["workloads"][w]["end_to_end"]["metrics"]["request_s"]["value"]
               for w in spec.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace,table", [(0, spec.END_TO_END), (1, spec.PER_LAYER)])
def test_driver_contract_last_line(trace, table):
    proc = run("--workload", "timestep_warm", "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert list(last["metrics"]) == [name for name, *_ in table]
    for name, unit, *_ in table:
        assert set(last["metrics"][name]) == {"value", "unit"}
        assert last["metrics"][name]["unit"] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "brick_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
