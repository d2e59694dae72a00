"""Regenerate the vendored fixture matrices in this directory.

Each vendored fixture is the output of a deterministic generator from
:mod:`repro.sparse.generators`, written with provenance comments so the
``.mtx`` files are self-describing. Run from the repo root:

    PYTHONPATH=src python tests/fixtures/regen_fixtures.py

The files are committed; regeneration must be a no-op unless a generator
changed (in which case the diff documents exactly what moved).
"""

from __future__ import annotations

from pathlib import Path

from repro.sparse.fixtures import FIXTURES, fixtures_dir, load_fixture
from repro.sparse.generators import (
    arrowhead,
    banded_dense_rows,
    circuit_like,
    power_law_laplacian,
)
from repro.sparse.io import write_matrix_market

# name -> zero-arg builder returning (A, geometry-or-None)
BUILDERS = {
    "arrowhead_200": lambda: arrowhead(200, border=6),
    "banded_rails_300": lambda: banded_dense_rows(300, ndense=4, seed=0),
    "powerlaw_300": lambda: (power_law_laplacian(300, seed=0)[0], None),
    "circuit_grid_24": lambda: circuit_like(24, seed=0),
}


def main() -> None:
    out = fixtures_dir()
    out.mkdir(parents=True, exist_ok=True)
    for name, build in sorted(BUILDERS.items()):
        fx = FIXTURES[name]
        A, _geom = build()
        path = out / fx.filename
        write_matrix_market(path, A, comments=[
            f"fixture: {name}",
            f"provenance: {fx.description}",
            "generated by tests/fixtures/regen_fixtures.py -- do not edit",
        ])
        # Read back through the registry: shape check + parse must pass.
        B, _ = load_fixture(name)
        assert B.shape == A.shape and B.nnz == A.nnz, name
        print(f"{path.name}: n={A.shape[0]} nnz={A.nnz}")
    missing = [n for n in FIXTURES if n not in BUILDERS]
    if missing:
        raise SystemExit(f"fixtures without builders: {missing}")


if __name__ == "__main__":
    main()
