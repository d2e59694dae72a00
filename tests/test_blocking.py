"""Tests for :mod:`repro.symbolic.blocking` — the irregular strategy.

Pins the invariants the module docstring promises:

* ``cap_split`` of an uncapped dissection is **bit-identical** to
  passing ``max_block`` to the builder directly — the foundation of the
  one-shared-dissection floor comparison;
* every tree the irregular strategy emits covers the permuted range,
  respects the effective cap, and keeps the scalar adjacency inside
  block-tree ancestor chains (etree consistency) — as hypothesis
  properties over generators x caps;
* the uniform floor holds on aggregate filled-panel words:
  ``blocking='irregular'`` total factor words are <= the uniform
  blocking's on every matrix, and strictly < on the adversarial
  generators where the strategy earns its keep;
* plans built from irregular symbolic factorizations are analyzer-clean
  (via the session-wide POST_BUILD_HOOK) and their ledgers are
  bit-identical under random legal schedules (fuzz conformance, tier-1
  subset here, full ≥25-order sweep under ``-m slow``) on 2 generator
  families x both volume modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import ProcessGrid3D
from repro.lu2d.options import FactorOptions
from repro.ordering import cap_split, nested_dissection
from repro.sparse import (
    arrowhead,
    banded_dense_rows,
    circuit_like,
    grid2d_5pt,
    power_law_laplacian,
)
from repro.sparse.pattern import strip_diagonal, symmetrize_pattern
from repro.symbolic import irregular_blocking, symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import fuzz_3d

# Small instances of the matrix families the strategy targets. The
# geometric (coordinate-cut) orderings of arrowhead/banded are the
# adversarial path: the cuts are blind to degrees, so dense rows land
# mid-node and snapping must rescue them.
_CASES = {
    "arrowhead": lambda: arrowhead(96, border=5),
    "banded": lambda: banded_dense_rows(120, ndense=3, seed=0),
    "powerlaw": lambda: (power_law_laplacian(150, seed=0)[0], None),
    "circuit": lambda: circuit_like(8, seed=1),
    "mesh": lambda: grid2d_5pt(12),
}
_matrix_cache: dict = {}
_base_cache: dict = {}


def _matrix(name):
    if name not in _matrix_cache:
        _matrix_cache[name] = _CASES[name]()
    return _matrix_cache[name]


def _base_tree(name, leaf=24):
    """Memoized uncapped dissection (hypothesis re-draws heavily)."""
    key = (name, leaf)
    if key not in _base_cache:
        A, geom = _matrix(name)
        _base_cache[key] = nested_dissection(A, geom, leaf_size=leaf,
                                             max_block=None)
    return _base_cache[key]


def _trees_equal(t1, t2) -> bool:
    return all(np.array_equal(a, b) for a, b in (
        (t1.parent, t2.parent), (t1.perm.perm, t2.perm.perm),
        (t1.layout.offsets, t2.layout.offsets)))


def _check_invariants(A, tree, cap):
    """The blocking contract: cover, cap, etree consistency (contiguity
    is the tree's form: block k is ``perm[offsets[k]:offsets[k + 1]]``)."""
    n = A.shape[0]
    # Cover: the blocks partition [0, n) (Permutation's constructor
    # already rejects non-bijections; assert the layout agrees).
    assert tree.layout.offsets[-1] == n
    sizes = tree.layout.sizes()
    assert (sizes > 0).all()
    assert sizes.sum() == n
    if cap is not None:
        assert sizes.max() <= cap, f"block of {sizes.max()} exceeds cap {cap}"
    # Etree consistency: every symmetrized off-diagonal edge connects a
    # block to itself or to one of its block-tree ancestors — the
    # separation property block_fill's ancestor closure relies on.
    S = strip_diagonal(symmetrize_pattern(A))
    S_perm = tree.perm.apply_matrix(S).tocoo()
    blk = np.empty(n, dtype=np.int64)
    for k in range(tree.nblocks):
        blk[tree.layout.offsets[k]:tree.layout.offsets[k + 1]] = k
    anc = []
    for k in range(tree.nblocks):
        chain = [k]
        while tree.parent[chain[-1]] != -1:
            chain.append(int(tree.parent[chain[-1]]))
        anc.append(frozenset(chain))
    for i, j in zip(S_perm.row, S_perm.col):
        bi, bj = int(blk[i]), int(blk[j])
        lo, hi = min(bi, bj), max(bi, bj)
        assert hi in anc[lo], f"edge ({i},{j}): block {hi} not ancestor of {lo}"


class TestUniformCapSplit:
    @pytest.mark.parametrize("name", ["mesh", "circuit"])
    @pytest.mark.parametrize("cap", [8, 16, 64])
    def test_bit_identical_to_in_build_cap(self, name, cap):
        """Post-hoc chain splitting == in-build capping, byte for byte."""
        A, geom = _matrix(name)
        split = cap_split(_base_tree(name), cap)
        direct = nested_dissection(A, geom, leaf_size=24, max_block=cap)
        assert _trees_equal(split, direct)
        assert np.array_equal(split.perm.perm, direct.perm.perm)

    def test_none_cap_is_identity(self):
        base = _base_tree("mesh")
        assert cap_split(base, None) is base


class TestOptionsAndSignature:
    """The blocking strategy is validated and keys the plan cache."""

    def test_factor_options_blocking_validation(self):
        with pytest.raises(ValueError):
            FactorOptions(blocking="adaptive")

    def test_symbolic_rejects_unknown_blocking(self):
        A, geom = _matrix("mesh")
        with pytest.raises(ValueError, match="unknown blocking strategy"):
            symbolic_factorize(A, geom, blocking="adaptive")

    @pytest.mark.parametrize("blocking", ["uniform", "irregular"])
    def test_symbolic_rejects_nonpositive_cap(self, blocking):
        A, geom = _matrix("mesh")
        with pytest.raises(ValueError, match="max_block must be positive"):
            symbolic_factorize(A, geom, max_block=0, blocking=blocking)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_irregular_blocking_rejects_nonpositive_cap(self, cap):
        """Called directly, not only behind ``symbolic_factorize``'s own
        check: a cap of 0 used to divide by zero in ``cap_chunks``."""
        A, _geom = _matrix("mesh")
        with pytest.raises(ValueError, match="max_block must be positive"):
            irregular_blocking(A, _base_tree("mesh"), cap)

    def test_symbolic_rejects_tree_with_irregular(self):
        A, geom = _matrix("mesh")
        with pytest.raises(ValueError, match="derives its own tree"):
            symbolic_factorize(A, geom, tree=_base_tree("mesh"),
                               blocking="irregular")

    def test_plan_options_key_separates_blockings(self):
        from repro.plan.replay import plan_options_key
        k_u = plan_options_key(FactorOptions())
        k_i = plan_options_key(FactorOptions(blocking="irregular"))
        assert k_u != k_i


class TestFloor:
    """The uniform floor: irregular never stores more factor words."""

    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_never_loses_words(self, name):
        """Aggregate filled-panel words, summed over every block: the
        floor says nothing about per-rank words (EXPERIMENTS.md)."""
        A, geom = _matrix(name)
        sf_i = symbolic_factorize(A, geom, leaf_size=24, max_block=32,
                                  blocking="irregular")
        sf_u = symbolic_factorize(A, geom, leaf_size=24, max_block=32)
        assert sf_i.costs.total_words <= sf_u.costs.total_words
        info = sf_i.blocking_info
        assert info["strategy"] == "irregular"
        assert info["chose"] in ("irregular", "uniform")
        assert info["words_irregular"] >= 0
        assert info["words_uniform"] == sf_u.costs.total_words

    @pytest.mark.parametrize("name", ["arrowhead", "banded"])
    def test_wins_on_adversarial_geometries(self, name):
        """Dense-row matrices under geometric (degree-blind) ordering:
        snapping must actually fire and the irregular candidate win."""
        A, geom = _matrix(name)
        sf = symbolic_factorize(A, geom, leaf_size=24, max_block=32,
                                blocking="irregular")
        info = sf.blocking_info
        assert info["nodes_snapped"] > 0
        assert info["chose"] == "irregular"
        assert info["words_irregular"] < info["words_uniform"]

    def test_mesh_degenerates_to_uniform(self):
        """No discontinuities on the 5-point mesh: identical words."""
        A, geom = _matrix("mesh")
        sf_i = symbolic_factorize(A, geom, leaf_size=24, max_block=32,
                                  blocking="irregular")
        sf_u = symbolic_factorize(A, geom, leaf_size=24, max_block=32)
        assert sf_i.costs.total_words == sf_u.costs.total_words

    def test_uniform_default_records_info(self):
        A, geom = _matrix("mesh")
        sf = symbolic_factorize(A, geom, leaf_size=24)
        assert sf.blocking_info == {"strategy": "uniform"}


# -- conformance fuzz: irregular blockings through the full 3D machinery ---

FAST_FUZZ = 3   # orders per configuration in tier-1
FULL_FUZZ = 25  # orders per configuration under -m slow


def _fuzz_case(name, compact, n_orders, seed):
    A, geom = _matrix(name)
    sf = symbolic_factorize(A, geom, leaf_size=24, max_block=32,
                            blocking="irregular")
    tf = greedy_partition(sf, 2)
    opts = FactorOptions(blocking="irregular", compact_comm=compact)
    rep = fuzz_3d(sf, tf, ProcessGrid3D(2, 2, 2), numeric=True,
                  options=opts, n_orders=n_orders, seed=seed)
    assert rep.ok, rep.summary()
    return rep


class TestFuzzConformance:
    """Tier-1 subset: 2 generators x both volume modes, few orders."""

    @pytest.mark.parametrize("compact", [False, True],
                             ids=["dense", "compact"])
    @pytest.mark.parametrize("name", ["arrowhead", "powerlaw"])
    def test_ledgers_schedule_independent(self, name, compact):
        rep = _fuzz_case(name, compact, FAST_FUZZ, seed=17)
        assert rep.factor_max_dev <= 1e-12


@pytest.mark.slow
class TestFuzzConformanceSweep:
    """Full ≥25-order sweep per configuration."""

    @pytest.mark.parametrize("compact", [False, True],
                             ids=["dense", "compact"])
    @pytest.mark.parametrize("name", ["arrowhead", "powerlaw"])
    def test_full_sweep(self, name, compact):
        rep = _fuzz_case(name, compact, FULL_FUZZ, seed=5)
        assert rep.n_orders == FULL_FUZZ and rep.n_perturbed > 0


# -- hypothesis property tests ---------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_PROP_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@given(name=st.sampled_from(sorted(_CASES)),
       cap=st.sampled_from([12, 16, 32, None]))
@_PROP_SETTINGS
def test_irregular_tree_invariants(name, cap):
    """Cover + cap + etree consistency over generators x caps."""
    A, _geom = _matrix(name)
    tree, info = irregular_blocking(A, _base_tree(name), cap)
    _check_invariants(A, tree, cap)
    assert info["nb_after_amalgamation"] == tree.nblocks
    assert info["amalgamated"] >= 0


@given(name=st.sampled_from(["arrowhead", "powerlaw"]),
       cap=st.sampled_from([16, 32]))
@_PROP_SETTINGS
def test_irregular_symbolic_builds_clean_plans(name, cap):
    """End-to-end: symbolic + 3D plan build; the session POST_BUILD_HOOK
    race-checks every plan built here, so reaching the assert means the
    analyzer found no races/cycles/malformed collectives."""
    from repro.plan.build import build_3d_plan

    A, geom = _matrix(name)
    sf = symbolic_factorize(A, geom, leaf_size=24, max_block=cap,
                            blocking="irregular")
    _check_invariants(A, sf.tree, cap)  # whichever candidate the floor chose
    tf = greedy_partition(sf, 2)
    plan = build_3d_plan(sf, tf, ProcessGrid3D(2, 2, 2), FactorOptions(
        blocking="irregular"))
    assert plan.levels
