"""Tests for the HALO accelerator-offload model."""

import numpy as np
import pytest

from repro.comm import CommError, Machine, Simulator
from repro.comm.accelerator import Accelerator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.sparse import grid3d_7pt, grid2d_5pt
from repro.symbolic import symbolic_factorize
from tests.conftest import one_layer


class TestAcceleratorModel:
    def test_threshold(self):
        a = Accelerator(min_flops=1e6)
        assert a.should_offload(2e6)
        assert not a.should_offload(5e5)

    def test_device_time_components(self):
        a = Accelerator(gamma_accel=1e-12, pcie_beta=1e-9,
                        offload_overhead=1e-5)
        assert a.device_time(1e9, 0) == pytest.approx(1e-3)
        assert a.device_time(0, 1e6) == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Accelerator(gamma_accel=-1.0)


class TestSimulatorOffload:
    def test_offload_without_attach_rejected(self):
        sim = Simulator(2)
        with pytest.raises(CommError, match="accelerator"):
            sim.offload_gemm(0, 1e6, 1e3)

    def test_async_then_sync(self):
        sim = Simulator(1)
        sim.attach_accelerator(Accelerator(offload_overhead=1e-5))
        sim.offload_gemm(0, 1e9, 1e6)
        host_after_enqueue = sim.clock[0]
        assert host_after_enqueue == pytest.approx(1e-5)   # only the enqueue
        assert sim.accel_clock[0] > host_after_enqueue     # device busy
        sim.accel_sync(0)
        assert sim.clock[0] == pytest.approx(sim.accel_clock[0])

    def test_overlap_with_host_compute(self):
        """Host compute between enqueue and sync hides device time."""
        sim = Simulator(1, Machine.edison_like())
        sim.attach_accelerator(Accelerator())
        sim.offload_gemm(0, 1e8, 1e5)
        device_done = sim.accel_clock[0]
        sim.compute(0, 1e10, "panel")  # long host work
        sim.accel_sync(0)
        assert sim.clock[0] > device_done  # sync was free

    def test_ledgers(self):
        sim = Simulator(2)
        sim.attach_accelerator(Accelerator())
        sim.offload_gemm(1, 5e6, 1e4)
        sim.offload_gemm(1, 7e6, 1e4)
        assert sim.accel_flops[1] == 12e6
        assert sim.offloaded_updates[1] == 2
        assert sim.accel_flops[0] == 0


class TestHaloFactorization:
    def test_numeric_unchanged_by_offload(self):
        """Offload is a cost-model decision; the numerics are identical."""
        A, g = grid3d_7pt(7)
        sf = symbolic_factorize(A, g, leaf_size=32)
        opts = FactorOptions()
        results = {}
        for accel in (False, True):
            sim = Simulator(4)
            if accel:
                sim.attach_accelerator(Accelerator(min_flops=1e4))
            res = factor_3d(sf, *one_layer(sf, 2, 2), sim, options=opts)
            results[accel] = res.factors().to_dense()
        assert np.array_equal(results[False], results[True])

    def test_flops_split_host_device(self):
        """Host + device flops together equal the symbolic Schur total."""
        A, g = grid3d_7pt(8)
        sf = symbolic_factorize(A, g, leaf_size=32)
        sim = Simulator(4)
        sim.attach_accelerator(Accelerator(min_flops=1e5))
        factor_3d(sf, *one_layer(sf, 2, 2), sim, numeric=False)
        total = sim.flops["schur"].sum() + sim.accel_flops.sum()
        assert total == pytest.approx(sf.costs.schur_flops.sum())
        assert sim.accel_flops.sum() > 0
        assert sim.flops["schur"].sum() > 0  # small updates stayed home

    def test_offload_helps_dense_blocks(self):
        """Lower threshold / bigger blocks -> measurable speedup."""
        A, g = grid3d_7pt(10)
        sf = symbolic_factorize(A, g, leaf_size=64, max_block=128)
        times = {}
        for accel in (False, True):
            sim = Simulator(4, Machine.edison_like())
            if accel:
                sim.attach_accelerator(Accelerator(min_flops=2e5))
            factor_3d(sf, *one_layer(sf, 2, 2), sim, numeric=False)
            times[accel] = sim.makespan
        assert times[True] < times[False]

    def test_everything_below_threshold_is_noop(self):
        A, g = grid2d_5pt(12)
        sf = symbolic_factorize(A, g, leaf_size=16)
        times = {}
        for accel in (False, True):
            sim = Simulator(4, Machine.edison_like())
            if accel:
                sim.attach_accelerator(Accelerator(min_flops=1e12))
            factor_3d(sf, *one_layer(sf, 2, 2), sim, numeric=False)
            times[accel] = sim.makespan
        assert times[True] == pytest.approx(times[False])
