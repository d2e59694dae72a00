"""Tests for metrics aggregation and table rendering."""

import numpy as np
import pytest

from repro.analysis import FactorizationMetrics, format_table
from repro.analysis.report import format_si
from repro.comm import Machine, Simulator
from repro.comm.events import COMPUTE_KINDS
from repro.comm.stream import MSG, EventStream


def _toy_sim() -> Simulator:
    sim = Simulator(3, Machine.edison_like())
    code = COMPUTE_KINDS.index
    sim.book(EventStream(
        np.array([0, 0, 1, 0]), np.array([0, 0, 1, 1]),
        np.array([1e6, 5e5, 2e6, 1000.0]),
        np.array([code("schur"), code("panel"), code("diag"), MSG], np.int8),
        np.array([2, 0, 0, 0]), np.array([0, 1]), np.array([100.0, 300.0])))
    sim.set_phase("red")
    sim.book(EventStream.pairs([2], [0], [400]))
    sim.set_phase("fact")
    return sim


class TestFactorizationMetrics:
    def test_from_simulator_fields(self):
        sim = _toy_sim()
        m = FactorizationMetrics.from_simulator(sim)
        assert m.nranks == 3
        assert m.makespan == pytest.approx(sim.makespan)
        assert m.mem_peak_max == 300
        assert m.mem_peak_total == 400
        assert m.mem_resident_total == 400
        assert m.total_flops == pytest.approx(1e6 + 5e5 + 2e6)

    def test_critical_rank_decomposition(self):
        """t_scu + t_panel + t_comm == makespan exactly."""
        sim = _toy_sim()
        m = FactorizationMetrics.from_simulator(sim)
        assert m.t_scu + m.t_panel + m.t_comm == pytest.approx(m.makespan)
        assert m.t_comm >= 0

    def test_phase_split(self):
        sim = _toy_sim()
        m = FactorizationMetrics.from_simulator(sim)
        # fact: rank0 sent 1000, rank1 received 1000 -> max per-rank 1000.
        assert m.w_fact_max == 1000
        # red: rank2 sent 400, rank0 received 400.
        assert m.w_red_max == 400
        assert m.w_total_max == pytest.approx(m.w_fact_max + m.w_red_max)

    def test_comparisons(self):
        sim = _toy_sim()
        m = FactorizationMetrics.from_simulator(sim)
        assert m.speedup_over(m) == pytest.approx(1.0)
        assert m.memory_overhead_over(m) == pytest.approx(0.0)
        assert m.comm_reduction_over(m) == pytest.approx(1.0)

    def test_flop_rate(self):
        sim = _toy_sim()
        m = FactorizationMetrics.from_simulator(sim)
        assert m.flop_rate == pytest.approx(m.total_flops / m.makespan)

    def test_zero_baseline_memory_rejected(self):
        sim = _toy_sim()
        m = FactorizationMetrics.from_simulator(sim)
        empty = FactorizationMetrics.from_simulator(Simulator(1))
        with pytest.raises(ValueError):
            m.memory_overhead_over(empty)


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(["a", "bbbb"], [[1, 2.5], [33, 4.123456]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert set(lines[2].replace(" ", "")) == {"-"}
        # Right-aligned columns: all lines same width.
        assert len({len(ln) for ln in lines[1:]}) == 1

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456789]], floatfmt=".2f")
        assert "1.23" in out

    def test_row_length_checked(self):
        with pytest.raises(ValueError, match="row length"):
            format_table(["a", "b"], [[1]])

    def test_non_numeric_cells(self):
        out = format_table(["name"], [["hello"]])
        assert "hello" in out


class TestFormatSi:
    def test_scales(self):
        assert format_si(0) == "0"
        assert format_si(1234) == "1.23K"
        assert format_si(2.5e6) == "2.5M"
        assert format_si(3.1e9) == "3.1G"
        assert format_si(7e12) == "7T"
        assert format_si(12.0) == "12"

    def test_negative(self):
        assert format_si(-4.2e6) == "-4.2M"
