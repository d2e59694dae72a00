"""Real-matrix fixtures: the vendored workloads.

The generators in :mod:`repro.sparse.generators` are *proxies*; this module
is how committed matrices enter the test suite and benchmarks. Each
fixture lives in ``tests/fixtures/*.mtx`` — a small matrix written once by
``tests/fixtures/regen_fixtures.py`` from this package's own generators,
with provenance recorded in ``%`` comments — so every fixture test runs
offline and bit-reproducibly, through the same Matrix Market reader any
external file takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import scipy.sparse as sp

from repro.sparse.io import read_matrix_market

__all__ = ["FIXTURES", "Fixture", "FixtureUnavailable", "fixture_names",
           "load_fixture", "fixtures_dir"]


class FixtureUnavailable(Exception):
    """Raised when a fixture's file is missing or does not hold the
    registered matrix. Test code should translate this into a skip."""


@dataclass(frozen=True)
class Fixture:
    """One named test matrix: ``filename`` under :func:`fixtures_dir`,
    ``n`` its expected dimension (validated after load — a truncated
    file must not impersonate the real matrix)."""

    name: str
    filename: str
    description: str
    n: int
    #: Workload class tag used by docs/benchmarks ("circuit", "graph",
    #: "adversarial", ...).
    workload: str = ""


#: The registry: honest *generator* outputs (their provenance is in the
#: .mtx comments and regen_fixtures.py) standing in for matrix classes.
FIXTURES: dict[str, Fixture] = {f.name: f for f in [
    Fixture(name="arrowhead_200", filename="arrowhead_200.mtx", n=200,
            workload="adversarial",
            description="banded core + 6 dense border rows "
                        "(generators.arrowhead(200, border=6))"),
    Fixture(name="banded_rails_300", filename="banded_rails_300.mtx", n=300,
            workload="circuit",
            description="banded matrix with 4 near-dense supply rails "
                        "(generators.banded_dense_rows(300, ndense=4))"),
    Fixture(name="powerlaw_300", filename="powerlaw_300.mtx", n=300,
            workload="graph",
            description="preferential-attachment Laplacian + I "
                        "(generators.power_law_laplacian(300))"),
    Fixture(name="circuit_grid_24", filename="circuit_grid_24.mtx", n=576,
            workload="circuit",
            description="jittered 24x24 lattice with random vias "
                        "(generators.circuit_like(24))"),
]}


def fixture_names() -> list[str]:
    """Registered fixture names, sorted."""
    return sorted(FIXTURES)


def fixtures_dir() -> Path:
    """The vendored-fixture directory (``tests/fixtures`` of the repo)."""
    return Path(__file__).resolve().parents[3] / "tests" / "fixtures"


def load_fixture(name: str) -> tuple[sp.csr_matrix, Fixture]:
    """Load a registered fixture from :func:`fixtures_dir`; returns
    ``(A, fixture)``.

    Raises ``KeyError`` for unknown names and :class:`FixtureUnavailable`
    when the file is missing or its shape is not the registered one.
    """
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; "
                       f"known: {fixture_names()}")
    fx = FIXTURES[name]
    path = fixtures_dir() / fx.filename
    if not path.exists():
        raise FixtureUnavailable(
            f"fixture {name}: vendored file {path} missing "
            "(run tests/fixtures/regen_fixtures.py)")
    A = read_matrix_market(path)
    if A.shape[0] != fx.n or A.shape[1] != fx.n:
        raise FixtureUnavailable(
            f"fixture {name}: expected {fx.n}x{fx.n}, file has "
            f"{A.shape[0]}x{A.shape[1]} (regenerate {path})")
    return A, fx
