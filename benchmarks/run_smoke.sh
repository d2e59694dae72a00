#!/usr/bin/env bash
# Perf smoke gate (~20 s): the per-subsystem gates below plus one headline
# paper bench must still pass end-to-end. The fig9 bench runs at the
# default small scale because its Pz-shape assertions (the paper's
# non-planar Pz=16 retreat) only emerge once the proxy matrices are big
# enough. Kernel wall-clock is not gated here: the lu2d.* per-layer metrics
# of benchmarks/e2e cover the kernels. Exits non-zero on any failure.
#
# Usage: benchmarks/run_smoke.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Parallel fan-out divergence gate: the scaling bench asserts bit-identical
# ledgers and 1e-12 factor agreement across worker counts unconditionally
# (the speedup bar itself only applies on >= 4-core hosts).
REPRO_SCALE=tiny python -m pytest benchmarks/bench_parallel_scaling.py \
    --benchmark-only --benchmark-disable-gc -q -s
# Resilience gate: the monitored walk must be free when no fault fires
# (bit-identical ledgers), both recovery policies must reproduce the
# fault-free factors to 1e-12, and localized z-replica recovery must
# beat the global restart on aggregate overhead.
REPRO_SCALE=tiny python -m pytest benchmarks/bench_resilience.py \
    --benchmark-only --benchmark-disable-gc -q -s
REPRO_SCALE=small python -m pytest benchmarks/bench_fig9_16nodes.py \
    --benchmark-only --benchmark-disable-gc -q
# Factorization-service gate: a cache-hit request (plan replay) must run
# >= 2x faster than a cache-miss request (symbolic + plan build
# + execute), with warm ledgers bit-identical to cold and factors within
# 1e-12 on all four drivers (LU 2D, LU 3D, merged, Cholesky).
REPRO_SCALE=tiny python -m pytest benchmarks/bench_service.py \
    --benchmark-only --benchmark-disable-gc -q -s
# Comm-volume gate: compact block pricing must never exceed dense in any
# phase (per-block min), and must cut the non-planar total >= 1.5x — the
# regime where dense buffers overstate volume the most.
REPRO_SCALE=tiny python -m pytest benchmarks/bench_comm_volume.py \
    --benchmark-only --benchmark-disable-gc -q -s
# Autotune gate: the ledger-validated search must pick a configuration
# whose measured cost-only total words beat the naive near-square Pz=1
# grid (>= 1.3x on the non-planar zoo case; planar must not lose), with
# every validated candidate carrying a predicted-vs-measured pair.
REPRO_SCALE=tiny python -m pytest benchmarks/bench_autotune.py \
    --benchmark-only --benchmark-disable-gc -q -s
# Blocking gate: the structure-aware irregular blocking must never ship
# more comm words than the uniform cap on the circuit-like and arrowhead
# matrices (the floor guarantee), must post a real win on >= 2 of the
# adversarial generators, and the 3D-over-2D comm trade must hold (or be
# honestly bounded, for arrowhead's chain etree) on the new workload zoo.
REPRO_SCALE=tiny python -m pytest benchmarks/bench_irregular_blocking.py \
    --benchmark-only --benchmark-disable-gc -q -s
# Verifier self-test gate (cheap): deleting a dependency edge from a real
# plan MUST trip the static race detector — proves the analyzer guarding
# the whole suite (tests/conftest.py installs it on every plan build) is
# not vacuously green.
python -m pytest tests/test_verify.py -q -k mutation

echo "smoke OK: parallel ledgers identical, resilience free when idle, fig9 green, warm refactorize >= 2x with identical ledgers, compact volume <= dense with >= 1.5x non-planar cut, autotuned grid >= 1.3x vs naive non-planar, irregular blocking <= uniform comm with adversarial wins, race detector armed"
