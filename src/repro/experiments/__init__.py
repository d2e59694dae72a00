"""Experiment harness reproducing the paper's evaluation (Section V).

:mod:`repro.experiments.matrices` builds the Table III test-suite proxies;
:mod:`repro.experiments.harness` runs (matrix, P, Pz) configurations on the
simulator and returns :class:`RunRecord` rows; the ``fig*``/``table*``
modules assemble exactly the rows/series each paper table and figure
reports. ``python -m repro report`` prints them; ``tests/claims`` asserts
the paper's claims on them at the ``small`` scale.
"""

from repro.experiments.harness import (
    PreparedMatrix,
    RunRecord,
    prepared_suite,
    pz_sweep,
    run_configuration,
)
from repro.experiments.matrices import TestMatrix, paper_suite, prepared

__all__ = [
    "PreparedMatrix",
    "RunRecord",
    "TestMatrix",
    "paper_suite",
    "prepared",
    "prepared_suite",
    "pz_sweep",
    "run_configuration",
]
