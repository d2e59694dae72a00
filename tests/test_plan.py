"""Plan-equivalence oracle: the plan-driven drivers replay the seed loops.

``tests/data/golden_ledgers.json`` was generated (by
``tests/data/regen_golden.py``) from the pre-plan-layer imperative
drivers. These tests assert that the rewritten drivers — plan builder +
shared interpreter — reproduce every per-rank simulator ledger
*bit-identically* (exact float equality: ``json`` round-trips ``repr``)
and the numeric factors to 1e-12, across all four driver variants and the
option points that change the schedule (lookahead off, sparse broadcasts,
unbatched Schur updates).

Also pins the plan plumbing itself: plans are exposed on the results,
DAG edges always point backwards, and a plan survives the pickle
round-trip the process-pool workers depend on.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import PlanStats, format_plan_summary
from repro.comm import Machine, ProcessGrid2D, ProcessGrid3D, Simulator
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.plan import GridPlan, Plan3D, build_grid_plan
from repro.sparse import (
    arrowhead,
    circuit_like,
    delaunay_mesh_2d,
    grid2d_5pt,
    grid3d_7pt,
    kkt_like,
    power_law_laplacian,
)
from repro.symbolic import symbolic_factorize
from repro.tree import greedy_partition
from repro.verify import ledger_state
from tests.conftest import one_layer, plan_tasks

# The goldens are pinned per block-volume mode: the dense file is the
# original seed (never regenerated by refactors); the compact file pins
# the same cases under FactorOptions(compact_comm=True) word pricing.
# ``TestGoldenLedgers`` runs every case dense, its ``...Compact`` subclass
# compact — one tier-1 pass covers both.
GOLDENS = {
    compact: json.loads((Path(__file__).parent / "data" / name).read_text())
    for compact, name in ((False, "golden_ledgers.json"),
                          (True, "golden_ledgers_compact.json"))}


def assert_matches_golden(case: str, sim: Simulator, result=None,
                          compact: bool = False):
    want = GOLDENS[compact][case]
    got = ledger_state(sim)
    for key, val in want.items():
        if key == "factor_checksum":
            F = result.factors().to_dense()
            assert float(F.sum()) == pytest.approx(val["sum"], abs=1e-12)
            assert float(np.abs(F).sum()) == \
                pytest.approx(val["abs_sum"], rel=1e-12)
            assert float(np.abs(F).max()) == \
                pytest.approx(val["max_abs"], rel=1e-12)
            continue
        assert got[key] == val, f"{case}: ledger {key} diverged from seed"


def planar_setup(nx: int, leaf: int, pz: int):
    A, geom = grid2d_5pt(nx)
    sf = symbolic_factorize(A, geom, leaf_size=leaf)
    return sf, greedy_partition(sf, pz)


def spd_setup(nx: int, leaf: int, pz: int):
    A, geom = grid2d_5pt(nx)
    S = (A + A.T) * 0.5
    S = (S + sp.eye(A.shape[0]) * (abs(S).sum(axis=1).max() + 1.0)).tocsr()
    sf = symbolic_factorize(S, geom, leaf_size=leaf)
    return sf, greedy_partition(sf, pz)


class TestGoldenLedgers:
    #: Block pricing of every case in this class (see the subclass below).
    COMPACT = False

    def opts(self, **kw) -> FactorOptions:
        return FactorOptions(compact_comm=self.COMPACT, **kw)

    def check(self, case, sim, result=None):
        assert_matches_golden(case, sim, result, compact=self.COMPACT)

    @pytest.mark.parametrize("label,opts", [
        ("default", {}),
        ("lookahead0", {"lookahead": 0}),
        ("sparse_bcast", {"sparse_bcast": True}),
        # Pinned with the deleted ``batched_schur=False`` per-block loop;
        # the one remaining Schur body must keep matching that JSON row.
        ("unbatched", {}),
    ])
    def test_lu2d(self, label, opts):
        """The 2D baseline's rows, reproduced by Algorithm 1 at Pz = 1."""
        sf, tf = planar_setup(12, 16, 1)
        grid3 = ProcessGrid3D(2, 3, 1)
        sim = Simulator(grid3.size, Machine.edison_like())
        factor_3d(sf, tf, grid3, sim, numeric=False,
                  options=self.opts(**opts))
        self.check(f"lu2d_{label}", sim)

    @pytest.mark.parametrize("numeric", [False, True])
    def test_lu3d_planar(self, numeric):
        sf, tf = planar_setup(14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=numeric,
                        options=self.opts())
        case = "lu3d_pz4_numeric" if numeric else "lu3d_pz4"
        self.check(case, sim, res)

    def test_lu3d_brick(self):
        A, g = grid3d_7pt(6)
        sf = symbolic_factorize(A, g, leaf_size=24)
        tf = greedy_partition(sf, 2)
        grid3 = ProcessGrid3D(1, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        factor_3d(sf, tf, grid3, sim, numeric=False, options=self.opts())
        self.check("lu3d_brick_pz2", sim)

    @pytest.mark.parametrize("numeric", [False, True])
    def test_merged(self, numeric):
        sf, tf = planar_setup(14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size, Machine.edison_like())
        factor_3d(sf, tf, grid3, sim, numeric=numeric,
                  options=self.opts(), merged=True)
        self.check("merged_pz4_numeric" if numeric else "merged_pz4", sim)

    @pytest.mark.parametrize("numeric", [False, True])
    def test_cholesky(self, numeric):
        sf, tf = spd_setup(14, 16, 2)
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=numeric,
                        options=self.opts(), backend="cholesky")
        case = "chol_pz2_numeric" if numeric else "chol_pz2"
        self.check(case, sim, res)

    @pytest.mark.parametrize("label", ["arrowhead", "powerlaw"])
    def test_irregular_blocking(self, label):
        """blocking='irregular' end to end on the adversarial generators;
        both goldens were produced with the irregular candidate chosen,
        so a regression to uniform blocking diverges immediately."""
        from repro.sparse import arrowhead, power_law_laplacian
        if label == "arrowhead":
            A, g = arrowhead(96, border=5)
        else:
            A, g = power_law_laplacian(150, seed=0)[0], None
        sf = symbolic_factorize(A, g, leaf_size=24, max_block=32,
                                blocking="irregular")
        assert sf.blocking_info["chose"] == "irregular"
        tf = greedy_partition(sf, 2)
        grid3 = ProcessGrid3D(2, 2, 2)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=True,
                        options=self.opts(blocking="irregular"))
        self.check(f"lu3d_{label}_irregular", sim, res)


class TestGoldenLedgersCompact(TestGoldenLedgers):
    """The same cases under compact block pricing, against their own
    pinned file (what CI's second whole-suite pass used to cover)."""

    COMPACT = True


class TestGoldenRegeneration:
    def test_regen_script_rewrites_the_committed_files(self, tmp_path):
        """``tests/data/regen_golden.py`` run into a temporary directory
        writes both committed files again: ledgers exactly, in the same
        key order (``event_counts`` included), checksums to 1e-12."""
        import importlib.util
        path = Path(__file__).parent / "data" / "regen_golden.py"
        spec = importlib.util.spec_from_file_location("regen_golden", path)
        regen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regen)
        for compact, name in regen.NAMES.items():
            regen.main(compact, tmp_path)
            got = json.loads((tmp_path / name).read_text())
            assert list(got) == list(GOLDENS[compact])
            for case, want in GOLDENS[compact].items():
                have = got[case]
                if isinstance(want, dict) and "factor_checksum" in want:
                    want, have = dict(want), dict(have)
                    assert have.pop("factor_checksum") == pytest.approx(
                        want.pop("factor_checksum"), rel=1e-12), case
                assert json.dumps(have) == json.dumps(want), case


class TestPlanPlumbing:
    @pytest.fixture(scope="class")
    def lu_run(self):
        sf, tf = planar_setup(14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=False)
        return sf, sim, res

    def test_plan_exposed_on_results(self, lu_run):
        _, _, res = lu_run
        assert isinstance(res.plan, Plan3D)
        assert res.plan.backend == "lu"
        assert not res.plan.merged
        # One LevelStep per tree level, top level first.
        assert [s.level for s in res.plan.levels] == \
            list(range(res.tf.l, -1, -1))

    def test_2d_plan_is_one_level_of_one_grid(self):
        """At Pz = 1 the plan is the per-grid builder's plan of every node
        as one level of one grid, with no reduction."""
        sf, tf = planar_setup(12, 16, 1)
        grid3 = ProcessGrid3D(2, 3, 1)
        res = factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=False)
        (step,) = res.plan.levels
        (plan,) = step.grid_plans
        assert isinstance(plan, GridPlan) and step.reduces == []
        assert plan.backend == "lu" and plan.nodes == list(range(sf.nb))
        want = build_grid_plan(sf, plan.nodes, grid3.layer(0)).arrays
        for col in ("tid", "kind", "node", "bi", "bj"):
            assert np.array_equal(getattr(plan.arrays, col),
                                  getattr(want, col)), col

    def test_deps_point_backwards_and_tids_unique(self, lu_run):
        _, _, res = lu_run
        seen = set()
        for tid, deps, _kind in plan_tasks(res.plan):
            assert tid not in seen
            for d in deps:
                assert d in seen
            seen.add(tid)

    def test_lookahead_reorders_but_preserves_tasks(self):
        A, geom = grid2d_5pt(12)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        grid = ProcessGrid2D(2, 3)
        nodes = list(range(sf.nb))
        base = build_grid_plan(sf, nodes, grid, FactorOptions(lookahead=0))
        ahead = build_grid_plan(sf, nodes, grid, FactorOptions(lookahead=8))
        def keys(plan):
            A = plan.arrays
            return list(zip(*(getattr(A, c).tolist()
                              for c in ("kind", "node", "bi", "bj"))))
        assert sorted(keys(base)) == sorted(keys(ahead))
        assert keys(base) != keys(ahead)

    def test_plan_pickles(self, lu_run):
        _, _, res = lu_run
        clone = pickle.loads(pickle.dumps(res.plan))
        assert clone.n_tasks == res.plan.n_tasks

    def test_interpreting_same_plan_twice_is_deterministic(self):
        A, geom = grid2d_5pt(12)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        from repro.plan import build_grid_plan, execute_grid_plan
        grid = ProcessGrid2D(2, 3)
        plan = build_grid_plan(sf, list(range(sf.nb)), grid, FactorOptions())
        sims = []
        for _ in range(2):
            sim = Simulator(grid.size, Machine.edison_like())
            execute_grid_plan(plan, sim)
            sims.append(sim)
        assert ledger_state(sims[0]) == ledger_state(sims[1])


def replay_schedule(parent: list, nodes: list, lookahead: int, q0: int = 0):
    """The drivers' II-F lookahead walk over one grid's ``nodes``
    (ascending, numbered from ``q0``), step by step with their ``pending``
    counters: the referee of ``repro.plan.build._schedule``. Returns the
    events (``q``: node ``q``'s panels, ``~q``: its Schur update) and each
    node's nearest in-list ancestor (-1 for none)."""
    where = {k: q for q, k in enumerate(nodes)}
    n = len(nodes)
    chains, pending = [], [0] * n
    for u in nodes:
        chain = []
        p = parent[u]
        while p != -1:
            q = where.get(p)
            if q is not None:
                chain.append(q)
                pending[q] += 1
            p = parent[p]
        chains.append(chain)
    done, events = [False] * n, []
    for q in range(n):
        if not done[q]:
            done[q] = True
            events.append(q0 + q)
        for m in range(q + 1, min(q + 1 + lookahead, n)):
            if not done[m] and pending[m] == 0:
                done[m] = True
                events.append(q0 + m)
        events.append(~(q0 + q))
        for a in chains[q]:
            pending[a] -= 1
    return events, [q0 + c[0] if c else -1 for c in chains]


class TestLookaheadSchedule:
    """``_schedule`` computes a level's interleave in one array pass; the
    walk it replaced is the referee, level by level and on node lists no
    tree-forest partition produces (random subsets, spread over grids that
    hold disjoint subtrees), at every lookahead that matters."""

    @staticmethod
    def check(parent: np.ndarray, grids: list, counter: list):
        from repro.plan.build import _schedule
        nodes = [sorted(int(k) for k in g) for g in grids]
        ks = np.asarray([k for g in nodes for k in g], dtype=np.int64)
        node_ptr = np.cumsum([0] + [len(g) for g in nodes])
        grid = np.repeat(np.arange(len(nodes)), np.diff(node_ptr))
        for lookahead in sorted({0, 1, 2, 8, ks.size}):
            want_ev, want_near = [], []
            for g in nodes:
                ev, near = replay_schedule(parent.tolist(), g, lookahead,
                                           len(want_near))
                want_ev += ev
                want_near += near
            ev, near = _schedule(parent, ks, node_ptr, grid, lookahead)
            assert ev.tolist() == want_ev, (grids, lookahead)
            assert near.tolist() == want_near, (grids, lookahead)
            counter.append(1)

    def test_every_level_of_real_plans(self):
        counter = []
        for A, geom, leaf in (grid2d_5pt(16) + (16,), grid3d_7pt(6) + (24,)):
            sf = symbolic_factorize(A, geom, leaf_size=leaf)
            for pz in (1, 2, 4, 8, 16):
                tf = greedy_partition(sf, pz)
                for lvl in range(tf.l + 1):
                    grids = [f for b in range(2 ** lvl)
                             if len(f := tf.forests[(lvl, b)])]
                    self.check(sf.tree.parent, grids, counter)
        assert len(counter) >= 100

    def test_random_subsets_and_multi_grid_levels(self):
        from repro.ordering.minimum_degree import (minimum_degree_order,
                                                   tree_from_order)
        A, geom = grid2d_5pt(20)
        geometric = symbolic_factorize(A, geom, leaf_size=8).tree.parent
        B, _ = grid2d_5pt(12)
        md = tree_from_order(B, minimum_degree_order(B), max_block=4).parent
        rng = np.random.default_rng(7)
        counter = []
        for parent in (geometric, md):
            nb = parent.size
            depth = np.zeros(nb, dtype=np.int64)
            for v in range(nb - 1, -1, -1):     # parents above children
                depth[v] = depth[parent[v]] + 1 if parent[v] >= 0 else 0
            for _ in range(40):
                pick = rng.permutation(nb)[:rng.integers(1, nb + 1)]
                # Up to three grids holding disjoint subtrees: those below
                # a random depth, each on a random grid.
                d = int(rng.integers(0, depth.max() + 1))
                top = np.arange(nb)
                while (depth[top] > d).any():
                    top = np.where(depth[top] > d, parent[top], top)
                grid = rng.integers(0, rng.integers(1, 4), nb)[top]
                pick = pick[depth[pick] >= d]
                self.check(parent, [pick[grid[pick] == g] for g in range(3)
                                    if (grid[pick] == g).any()], counter)
        assert len(counter) > 300

    @pytest.mark.parametrize("ids, match", [
        (lambda nb: [0, 0, 1], r"node id 0 is outside \[0, \d+\) or listed twice"),
        (lambda nb: [nb + 3], r"node id \d+ is outside \[0, \d+\)"),
        (lambda nb: [-1], r"node id -1 is outside \[0, \d+\)"),
    ], ids=["duplicate", "above", "negative"])
    def test_bad_node_ids_are_refused(self, ids, match):
        A, geom = grid2d_5pt(12)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        with pytest.raises(ValueError, match=match):
            build_grid_plan(sf, ids(sf.nb), ProcessGrid2D(2, 3))

    @pytest.mark.parametrize("grids, match", [
        (lambda p: [[0, 1], [1, 2]], "node id 1 .* listed twice"),
        (lambda p: [[0], [p[0]]], "ancestor .* is on another grid"),
    ], ids=["an-id-on-two-grids", "an-ancestor-on-a-sibling-grid"])
    def test_levels_that_are_not_disjoint_forests_are_refused(self, grids,
                                                               match):
        """A level's grids hold disjoint subtrees: a node's update could
        never reach an ancestor's replica on another grid of its level."""
        from repro.comm.volume import volume_for
        from repro.plan.build import build_level
        A, geom = grid2d_5pt(12)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        opts = FactorOptions()
        with pytest.raises(ValueError, match=match):
            build_level(sf, [(g, nodes, 6 * g) for g, nodes in enumerate(
                grids(sf.tree.parent.tolist()))], 2, 3, opts, backend="lu",
                volume=volume_for(sf, opts))


#: The row-range referee's zoo: (A, geometry) per generator, small. The
#: last two hold no entry outside their diagonal blocks at leaf 32: one
#: supernode, and a diagonal matrix's many.
RANGE_ZOO = {
    "grid2d_5pt": lambda: grid2d_5pt(14),
    "grid3d_7pt": lambda: grid3d_7pt(6),
    "circuit_like": lambda: circuit_like(12),
    "kkt_like": lambda: kkt_like(5),
    "power_law_laplacian": lambda: power_law_laplacian(200),
    "delaunay_mesh_2d": lambda: delaunay_mesh_2d(200),
    "arrowhead": lambda: arrowhead(200),
    "one_supernode": lambda: grid2d_5pt(3),
    "diagonal": lambda: (sp.diags(np.arange(1.0, 65.0)).tocsr(), None),
}


#: The patterns the table-bound programs are refereed on: the brick's
#: and the warm op's matrices, and two the benchmark does not run.
BIND_ZOO = {
    "brick": lambda: grid3d_7pt(16),
    "warm": lambda: grid2d_5pt(64),
    "circuit_like": lambda: circuit_like(24),
    "kkt_like": lambda: kkt_like(8),
}


def _same_array(a, b) -> bool:
    """``a`` and ``b`` are one view: address, shape, strides, flags."""
    return (a.__array_interface__["data"][0]
            == b.__array_interface__["data"][0] and a.shape == b.shape
            and a.strides == b.strides and a.flags == b.flags)


def _assert_same_program(prog, ref) -> int:
    """Assert ``prog`` is ``ref`` op for op, a ranged op (a TRSM / GEMM
    whose ``out`` has fewer F-view rows, i.e. U columns) being the column
    slice of its full-width op; return how many ranged ops it holds."""
    from repro.lu2d.kernels import GEMM, TRSM
    assert len(prog) == len(ref)
    ranged = 0
    for a, b in zip(prog, ref):
        assert a[0] == b[0] and a[4] == b[4]
        if a[0] in (TRSM, GEMM) and len(a[1]) != len(b[1]):
            ranged += 1
            out, full = a[1], b[1]
            c0 = (out.__array_interface__["data"][0]
                  - full.__array_interface__["data"][0]) // full.strides[0]
            cut = slice(c0, c0 + len(out))
            assert 0 <= c0 and len(out) < len(full)
            assert _same_array(out, full[cut])
            if a[0] == GEMM:
                assert _same_array(a[2], b[2][cut]) and _same_array(a[3], b[3])
            else:
                assert _same_array(a[2], b[2]) and a[3] is b[3] is None
            continue
        for x, y in zip(a[1:4], b[1:4]):
            if isinstance(y, (list, tuple)):
                assert len(x) == len(y) and all(map(_same_array, x, y))
            else:
                assert x is y is None or _same_array(x, y)
    return ranged


def _range_case(gen: str, backend: str):
    """The zoo matrix made unsymmetric in pattern for LU (one-sided
    entries ``(r, 13 r + 5 mod n)``; the diagonal one stays diagonal) or
    SPD for Cholesky."""
    A, geom = RANGE_ZOO[gen]()
    n = A.shape[0]
    if backend == "lu" and gen != "diagonal":
        r = np.arange(0, n, 7)
        A = A + sp.csr_matrix((np.full(r.size, 0.01), (r, (13 * r + 5) % n)),
                              shape=(n, n))
    else:
        A = (A + A.T) * 0.5
    return (A + sp.eye(n) * (abs(A).sum(axis=1).max() + 1.0)).tocsr(), geom


def _ranges_by_loop(sf) -> np.ndarray:
    """``row_ranges``' referee loop: seed every L block from the
    symmetrized pattern entry by entry, then close it node by node."""
    off, nb = sf.layout.offsets, sf.nb
    block = np.repeat(np.arange(nb), sf.layout.sizes())
    R = {(int(i), k): [sf.n, 0] for k in range(nb) for i in sf.fill.lpanel[k]}
    S = (abs(sf.A_perm) + abs(sf.A_perm.T)).tocoo()
    for r, c in zip(S.row.tolist(), S.col.tolist()):
        if (block[r], block[c]) in R:
            i = block[r]
            R[i, block[c]][0] = min(R[i, block[c]][0], r - off[i])
            R[i, block[c]][1] = max(R[i, block[c]][1], r - off[i] + 1)
    for k in range(nb):
        for i in sf.fill.lpanel[k].tolist():
            for j in sf.fill.upanel[k][sf.fill.upanel[k] < i].tolist():
                R[i, j] = [min(R[i, j][0], R[i, k][0]),
                           max(R[i, j][1], R[i, k][1])]
    return np.array([R[int(i), k] for k in range(nb)
                     for i in sf.fill.lpanel[k]]).reshape(-1, 2)


def _scalar_fill(A) -> np.ndarray:
    """Boolean structure of ``L\\U`` by dense elimination, no pivoting."""
    G = A.toarray() != 0
    np.fill_diagonal(G, True)
    for k in range(G.shape[0]):
        r, c = (np.flatnonzero(x) + k + 1 for x in (G[k + 1:, k], G[k, k + 1:]))
        G[np.ix_(r, c)] = True
    return G


class TestKernelProgram:
    """A grid plan binds to a store once, as a flat list of per-block ops
    under the per-task pointer ``k_ptr`` — ``ev_ptr``'s numeric twin."""

    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_k_ptr_spans_the_program(self, backend):
        from repro.lu2d.kernels import GEMM, GETRF, POTRF, TRSM
        from repro.plan.arrays import PANEL_FACTOR, SCHUR_UPDATE
        from repro.plan.backends import get_backend
        from tests.reference_bind import block_rows
        sf, tf = (spd_setup if backend == "cholesky" else planar_setup)(
            14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        res = factor_3d(sf, tf, grid3, Simulator(grid3.size), backend=backend,
                        matrix=sp.tril(sf.A_perm).tocsr()
                        if backend == "cholesky" else None)
        factor = {"lu": GETRF, "cholesky": POTRF}[backend]
        rows = block_rows(sf, get_backend(backend).node_blocks)
        for step in res.plan.levels:
            for gp in step.grid_plans:
                A = gp.arrays
                prog = res.replicas.program(gp)
                assert prog is res.replicas.program(gp)     # bound once
                assert len(prog) == A.k_ptr[-1] == A.k_ptr.max()
                n_ops = np.diff(A.k_ptr)
                schur = A.kind == SCHUR_UPDATE
                assert np.array_equal(n_ops[schur], np.diff(A.pair_ptr)[schur])
                # An L-panel solve has no op: its node's factor op solves it.
                assert (n_ops[~schur] == (A.side[~schur] != 2)).all()
                for t, kind in enumerate(A.kind.tolist()):
                    codes = {op[0] for op in prog[A.k_ptr[t]:A.k_ptr[t + 1]]}
                    assert codes <= ({GEMM} if kind == SCHUR_UPDATE
                                     else {factor} if kind == PANEL_FACTOR
                                     else {TRSM})
                    if kind == PANEL_FACTOR:    # every structural L row,
                        k = int(A.node[t])  # below its diagonal or solved
                        (op,) = prog[A.k_ptr[t]:A.k_ptr[t + 1]]
                        assert sum(X.shape[1] for X in op[2]) + np.subtract(
                            *op[1].shape) == sum(
                            r.stop - r.start for key, r in rows.items()
                            if key[1] == k and key[0] > k)
                view = res.replicas.view(gp.g)
                fresh = get_backend(backend).bind(A, view, sf)  # per block
                if backend == "cholesky":   # the tall-panel op is LU's only
                    assert [op[0] for op in get_backend(backend).bind(
                        A, view, sf, lambda v: None)] == [op[0] for op in fresh]
                for a, b in zip(prog, fresh):
                    assert a[0] == b[0]
                    if a[0] == factor:      # the panel covers every block
                        assert np.shares_memory(a[1], b[1]) and all(
                            any(np.shares_memory(x, y) for y in [a[1], *a[2]])
                            for x in b[2])
                    else:
                        assert a[4] == b[4] and all(
                            x is y or np.shares_memory(x, y)
                            for x, y in zip(a[1:4], b[1:4]))

    @pytest.mark.parametrize("leaf", [8, 32])
    @pytest.mark.parametrize("gen", sorted(RANGE_ZOO))
    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_row_ranges_referee(self, backend, gen, leaf):
        """The L blocks' structural row ranges the kernels run on: they
        equal the per-node loop's, each covers its block's rows of the
        scalar elimination, the finished
        factors are exactly zero outside them at Pz = 2 and 1 and on the
        merged driver, and a value outside one is refused on a cold bind
        and on a warm rebind (which leaves the factors as they were)."""
        A, geom = _range_case(gen, backend)
        sf = symbolic_factorize(A, geom, leaf_size=leaf)
        off = sf.layout.offsets
        lp_ptr, lp_idx, _up_ptr, _up_idx = sf.fill.panel_csr()
        k_of = np.repeat(np.arange(sf.nb), np.diff(lp_ptr))
        blocks = list(zip(lp_idx.tolist(), k_of.tolist(),
                          *(r.tolist() for r in sf.row_ranges())))
        assert np.array_equal(np.column_stack(sf.row_ranges()),
                              _ranges_by_loop(sf))
        G = _scalar_fill(sf.A_perm)
        for i, k, r0, r1 in blocks:
            rows = np.flatnonzero(
                G[off[i]:off[i + 1], off[k]:off[k + 1]].any(axis=1))
            assert not rows.size or r0 <= rows[0] and rows[-1] < r1, (i, k)

        tf, grid3 = greedy_partition(sf, 2), ProcessGrid3D(2, 2, 2)
        cold = factor_3d(sf, tf, grid3, Simulator(grid3.size), backend=backend)
        values = sp.tril(sf.A_perm) if backend == "cholesky" else sf.A_perm
        finished = [cold.factors(), factor_3d(
            sf, *one_layer(sf, 2, 2), Simulator(4), backend=backend).factors()]
        if backend == "lu":
            finished.append(factor_3d(
                sf, tf, grid3, Simulator(grid3.size), numeric=True, merged=True
            ).factors())
        for F in finished:
            for i, k, r0, r1 in blocks:
                assert not F[(i, k)][:r0].any() and not F[(i, k)][r1:].any()

        sizes = sf.layout.sizes()
        room = [b for b in blocks if b[2] > 0 or b[3] < sizes[b[0]]]
        if not room:        # arrowhead: its dense border fills every row
            return
        i, k, r0, r1 = room[0]
        M = values.tolil()
        M[off[i] + (0 if r0 > 0 else r1), off[k]] = 1.0
        with pytest.raises(ValueError, match="outside the block pattern"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), backend=backend,
                      matrix=M.tocsr())
        want = cold.factors().to_dense()
        with pytest.raises(ValueError, match="outside the block pattern"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), backend=backend,
                      matrix=M.tocsr(), cached=cold.bundle,
                      replicas=cold.replicas)
        assert np.array_equal(cold.factors().to_dense(), want)

    @pytest.mark.parametrize("leaf", [8, 32])
    @pytest.mark.parametrize("gen", sorted(RANGE_ZOO))
    def test_u_blocks_are_zero_outside_their_column_extent(self, gen, leaf):
        """The mirror of the row ranges: after a numeric LU factorization,
        every replica of every U block ``(k, j)`` is exactly zero outside
        its column extent ``c0:c1`` — the row range of ``(j, k)`` in the
        transposed fill, which is ``L(j, k)``'s row range when the panels
        are symmetric — on standard and merged runs at Pz = 1, 2 and 4,
        on the packed arena the drivers lay out and on a full-height
        ``BlockMatrix.from_csr`` one. A U-side op bound on those columns
        drops only zeros."""
        from repro.lu3d.replication import ReplicaManager
        from repro.sparse import BlockMatrix
        from repro.symbolic.fill import BlockFill, row_ranges
        A, geom = _range_case(gen, "lu")
        sf = symbolic_factorize(A, geom, leaf_size=leaf)
        lp_ptr, lp_idx, up_ptr, up_idx = sf.fill.panel_csr()
        c0, c1 = row_ranges(sf.A_perm, sf.layout,
                            BlockFill(sf.fill.upanel, sf.fill.lpanel))
        if np.array_equal(lp_ptr, up_ptr) and np.array_equal(lp_idx, up_idx):
            assert np.array_equal(np.column_stack([c0, c1]),
                                  np.column_stack(sf.row_ranges()))
        k_of = np.repeat(np.arange(sf.nb), np.diff(up_ptr))
        extents = list(zip(k_of.tolist(), up_idx.tolist(), c0.tolist(),
                           c1.tolist()))
        for pz in (1, 2, 4):
            tf, grid3 = greedy_partition(sf, pz), ProcessGrid3D(2, 1, pz)
            for merged in (False, True):
                runs = [factor_3d(sf, tf, grid3, Simulator(grid3.size),
                                  merged=merged)]
                full = ReplicaManager(sf, tf, BlockMatrix.from_csr(
                    sf.A_perm, sf.layout,
                    block_pattern=runs[0].bundle.block_pattern(sf)))
                runs.append(factor_3d(sf, tf, grid3, Simulator(grid3.size),
                                      merged=merged, replicas=full))
                assert np.allclose(runs[0].factors().to_dense(),
                                   runs[1].factors().to_dense(), atol=1e-12)
                for res in runs:
                    for g in range(pz):
                        view = res.replicas.view(g)
                        for k, j, r0, r1 in extents:
                            U = view.get((k, j))
                            assert U is None or not U[:, :r0].any() \
                                and not U[:, r1:].any(), (pz, merged, g, k, j)

    @pytest.mark.parametrize("arena", ["packed", "from_csr"])
    @pytest.mark.parametrize("gen", sorted(BIND_ZOO))
    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_the_table_binds_the_reference_program(self, backend, gen, arena):
        """Every factor and solve program bound from the extents table is
        the dict-based referee's (``tests/reference_bind.py``) op for op —
        same op code, BLAS flags, buffer address, shape, strides and array
        flags — except that a ranged op is the column slice of the
        referee's full-width op. On the drivers' packed arena and on the
        full-height ``BlockMatrix.from_csr`` base the harness builds."""
        from repro.lu2d.storage import extents
        from repro.lu3d.replication import ReplicaManager
        from repro.plan.arrays import SCHUR_UPDATE
        from repro.sparse import BlockMatrix
        from repro.utils.ragged import ranges
        from tests.reference_bind import factor_program, solve_program
        A, geom = BIND_ZOO[gen]()
        if backend == "cholesky":
            A = ((A + A.T) * 0.5 + sp.eye(A.shape[0]) * (
                abs(A).sum(axis=1).max() + 1.0)).tocsr()
        sf = symbolic_factorize(A, geom, leaf_size=64, max_block=256)
        tf, grid3 = greedy_partition(sf, 4), ProcessGrid3D(2, 2, 4)
        res = factor_3d(sf, tf, grid3, Simulator(grid3.size), backend=backend)
        rep = res.replicas
        if arena == "from_csr":
            values = sp.tril(sf.A_perm).tocsr() if backend == "cholesky" \
                else sf.A_perm
            rep = ReplicaManager(sf, tf, BlockMatrix.from_csr(
                values, sf.layout, block_pattern=res.bundle.block_pattern(sf)),
                blocks_fn=res.bundle.blocks_fn)
        e, ranged, marked = extents(sf, res.bundle.blocks_fn), 0, 0
        for step in res.plan.levels:
            for gp in step.grid_plans:
                packed = rep._panel is not None and backend == "lu"
                ref = factor_program(backend, gp.arrays, rep.view(gp.g), sf,
                                     packed and (lambda v: rep.panel(gp.g, v)))
                ranged += _assert_same_program(rep.program(gp), ref)
                A = gp.arrays       # the ops the table marks as ranged
                ks, us = A.node[A.kind == SCHUR_UPDATE], A.side == 1
                u = e.order[np.searchsorted(e.keys, A.bi[us] * sf.nb
                                            + A.bj[us])]
                marked += e.pairs[ranges(e.pair_ptr[ks], np.diff(
                    e.pair_ptr)[ks]), 5].sum() + e.trsm_cols[u].sum()
        assert ranged == marked
        assert ranged > 0 if (backend, gen) == ("lu", "brick") else \
            backend == "lu" or ranged == 0
        sweeps = ((True, True, False), (False, True, False)) \
            if backend == "cholesky" else ((True, True, True), (
                False, False, False), (True, False, False), (False, True, True))
        plans = [res.bundle.solve_plan(sf, tf, grid3, down, lower)
                 for down, lower, _unit in sweeps]
        work, bound = rep.solve_program(sweeps, plans, (sf.n, 3))
        for (plan, prog, _stream), (_d, _l, unit) in zip(bound, sweeps):
            assert _assert_same_program(prog, solve_program(
                plan, sf, rep.home_view(), work, unit)) == 0

    @pytest.mark.parametrize("gen", ["grid3d_7pt", "circuit_like", "kkt_like",
                                     "brick"])
    @pytest.mark.parametrize("backend", ["lu", "cholesky"])
    def test_kernel_flops_count_the_bound_program(self, backend, gen):
        """``kernel_flops`` sums the ops one grid binds for every node:
        2/3 s^3 per GETRF (s^3 / 3 per POTRF), s^2 per row or column a TRSM
        solves, 2 m n k per GEMM — a ranged one on its columns (the brick,
        at the drivers' leaf 64 and cap 256, binds them)."""
        from repro.lu2d.kernels import GEMM, GETRF, TRSM
        from repro.lu2d.storage import cholesky_node_blocks, kernel_flops
        from repro.plan.backends import get_backend
        from repro.sparse import BlockMatrix
        if gen == "brick":
            A, geom = BIND_ZOO[gen]()       # symmetric: both backends'
            sf = symbolic_factorize(A, geom, leaf_size=64, max_block=256)
        else:
            A, geom = _range_case(gen, backend)
            sf = symbolic_factorize(A, geom, leaf_size=8)
        plan = build_grid_plan(sf, list(range(sf.nb)), ProcessGrid2D(1, 1),
                               FactorOptions(), backend=backend)
        store = dict(BlockMatrix.from_csr(
            sf.A_perm, sf.layout, block_pattern=sf.fill.all_blocks()).blocks)
        ran = np.zeros(3)
        for op, out, x, y, _flags in get_backend(backend).bind(
                plan.arrays, store, sf):
            if op == GEMM:      # out m x n, operands m x k, k x n
                ran[2] += 2.0 * out.size * np.sqrt(x.size * y.size / out.size)
            elif op == TRSM:
                ran[1] += x.shape[0] * out.size
            else:       # the diagonal block, then the node's L rows
                ran[0] += out.shape[0] ** 3 * (2.0 if op == GETRF else 1.0) / 3
                ran[1] += sum(y.shape[0] * X.size for X in x)
        fn = cholesky_node_blocks if backend == "cholesky" else None
        assert np.allclose(kernel_flops(sf, fn), ran, rtol=1e-12, atol=0)

    def test_a_cost_only_run_computes_no_row_ranges(self, monkeypatch):
        import repro.symbolic.symbolic_factor as symbolic

        def refuse(*_args):
            raise AssertionError("row ranges computed on a cost-only run")

        monkeypatch.setattr(symbolic, "row_ranges", refuse)
        sf, tf = planar_setup(14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        for backend in ("lu", "cholesky"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=False,
                      backend=backend)
        factor_3d(sf, tf, grid3, Simulator(grid3.size), numeric=False,
                  merged=True)
        with pytest.raises(AssertionError, match="cost-only"):
            factor_3d(sf, tf, grid3, Simulator(grid3.size))

    def test_bind_refuses_a_block_blas_would_copy(self):
        from repro.plan.backends import get_backend
        from repro.sparse import BlockMatrix
        sf, _tf = planar_setup(8, 16, 1)
        plan = build_grid_plan(sf, list(range(sf.nb)), ProcessGrid2D(1, 2),
                               FactorOptions())
        store = dict(BlockMatrix.from_csr(
            sf.A_perm, sf.layout, block_pattern=sf.fill.all_blocks()).blocks)
        key = next(k for k in store if k[0] != k[1])
        store[key] = np.asfortranarray(store[key])
        with pytest.raises(ValueError, match="C-contiguous float64"):
            get_backend("lu").bind(plan.arrays, store, sf)


class TestPlanStats:
    def test_critical_path_reported(self):
        sf, tf = planar_setup(14, 16, 4)
        grid3 = ProcessGrid3D(2, 2, 4)
        sim = Simulator(grid3.size, Machine.edison_like())
        res = factor_3d(sf, tf, grid3, sim, numeric=False)
        ps = PlanStats.from_plan(res.plan, machine=sim.machine)
        assert ps.n_tasks == res.plan.n_tasks
        assert 0 < ps.critical_path_tasks <= ps.n_tasks
        # The critical path cannot beat the simulated makespan's critical
        # path but must be a positive fraction of the serialized total.
        assert 0.0 < ps.critical_path_cost <= ps.total_cost
        # At least one task per level lies on the chained barrier spine.
        assert ps.critical_path_tasks >= len(res.plan.levels)
        text = format_plan_summary(ps)
        assert "critical path" in text
        assert "schur_update" in text

    def test_zero_comm_machine_prices_only_flops(self):
        A, geom = grid2d_5pt(12)
        sf = symbolic_factorize(A, geom, leaf_size=16)
        grid = ProcessGrid2D(2, 3)
        plan = build_grid_plan(sf, list(range(sf.nb)), grid, FactorOptions())
        full = PlanStats.from_plan(plan, machine=Machine.edison_like())
        nocomm = PlanStats.from_plan(plan, machine=Machine.zero_comm())
        assert nocomm.total_cost < full.total_cost
        assert nocomm.comm_words == full.comm_words  # volumes are model-free
