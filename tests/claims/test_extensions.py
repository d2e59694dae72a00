"""Section VII and beyond: the variants the paper proposes but does not
evaluate (Cholesky, merged grids, 2.5D ancestors), the
topology footnote, and the solve phase under the 3D layout."""

from collections import defaultdict

import numpy as np
import pytest

from repro.analysis import format_table
from repro.cholesky import factor_chol_3d
from repro.comm import DragonflyTopology, Machine, ProcessGrid3D, Torus3D
from repro.comm.volume import DenseVolume
from repro.experiments import paper_suite
from repro.lu2d import FactorOptions
from repro.lu3d.merged import factor_3d_merged
from repro.plan.arrays import PANEL_BCAST, PANEL_FACTOR, TaskArrays
from repro.plan.replay import PlanBundle
from repro.plan.tasks import AncestorReduce, LevelStep
from repro.solve import SparseLU3D
from repro.utils.ragged import csr_ptr
from tests.claims.conftest import P, cost_only, simulate


@pytest.mark.slow
def test_cholesky_on_the_same_schedule(suite):
    """"These principles could be applied to ... Cholesky": the SPD engine
    on the same Algorithm 1 schedule does half the arithmetic, keeps about
    half the storage and reduction traffic, and prefers the same Pz."""
    pzs = (1, 2, 4, 8, 16)
    data = {name: {"lu": [simulate(suite[name], pz)[0] for pz in pzs],
                   "cholesky": [simulate(suite[name], pz,
                                         driver=factor_chol_3d)[0]
                                for pz in pzs]}
            for name in ("K2D5pt4096", "Serena")}  # grid Laplacians: SPD
    print()
    print(format_table(
        ["matrix", "engine", "Pz", "T/T2D", "flops", "W_red", "mem"],
        [[name, eng, pz, m.makespan / ms[0].makespan, m.total_flops,
          m.w_red_max, m.mem_resident_total]
         for name, engines in data.items() for eng, ms in engines.items()
         for pz, m in zip(pzs, ms)],
        title=f"Extension — 3D Cholesky vs 3D LU, P={P} ranks"))

    for name, engines in data.items():
        lu, ch = engines["lu"], engines["cholesky"]
        for m_lu, m_ch in zip(lu, ch):
            assert m_ch.total_flops < 0.6 * m_lu.total_flops
            assert m_ch.mem_resident_total < 0.65 * m_lu.mem_resident_total
        # The aggregate halves; the max-rank value can tie when one L-panel
        # block, identical in both variants, sets the critical rank.
        for m_lu, m_ch in zip(lu[1:], ch[1:]):
            assert m_ch.w_red_mean < 0.7 * m_lu.w_red_mean
        t_lu = [m.makespan for m in lu]
        t_ch = [m.makespan for m in ch]
        assert min(t_ch) < t_ch[0], f"{name}: Cholesky gains nothing from 3D"
        best_lu = pzs[t_lu.index(min(t_lu))]
        best_ch = pzs[t_ch.index(min(t_ch))]
        assert best_lu / 2 <= best_ch <= best_lu * 2, (
            f"{name}: optimal Pz diverges between variants "
            f"(LU {best_lu}, Cholesky {best_ch})")


@pytest.mark.slow
def test_ancestor_level_variants(suite):
    """The Section VII remedy for the shrunken-grid ancestor bottleneck
    that survives as a per-block schedule: merge the idle grids
    (``factor_3d_merged``). Where the standard algorithm retreats
    (non-planar, large Pz) merging buys the extra ranks (``W ~
    D/sqrt(c*Pxy)``); a planar matrix's tiny separators leave nothing to
    accelerate. (The other remedy, a dense 2.5D LU, loses to merging once
    it is a per-block schedule: :func:`test_per_block_25d_loses_to_merged`.)"""
    pzs = (4, 8, 16)
    names = ("K2D5pt4096", "Serena", "nlpkkt80")
    data = {}
    for name in names:
        for pz in pzs:
            data[name, pz, "standard"] = simulate(suite[name], pz)[0]
            data[name, pz, "merged"] = simulate(
                suite[name], pz, driver=factor_3d_merged)[0]
    print()
    print(format_table(
        ["matrix", "Pz", "T std [ms]", "T merged [ms]", "Tscu std",
         "Tscu merged"],
        [[name, pz, data[name, pz, "standard"].makespan * 1e3,
          data[name, pz, "merged"].makespan * 1e3,
          data[name, pz, "standard"].t_scu * 1e3,
          data[name, pz, "merged"].t_scu * 1e3]
         for name in names for pz in pzs],
        title=f"Section VII ancestor-level variants, P={P}"))

    def t(name, pz, variant):
        return data[name, pz, variant].makespan

    for name in names:
        for pz in pzs:
            # Merging only re-partitions ownership: identical arithmetic.
            assert np.isclose(data[name, pz, "standard"].total_flops,
                              data[name, pz, "merged"].total_flops)
    for name in ("Serena", "nlpkkt80"):
        std16, mrg16 = data[name, 16, "standard"], data[name, 16, "merged"]
        assert t(name, 16, "standard") / t(name, 16, "merged") > 1.2, \
            f"{name}: merged grids should pay off at Pz=16"
        assert mrg16.t_scu < 0.75 * std16.t_scu
        # The Pz=8 -> 16 retreat shrinks or disappears.
        mrg_retreat = t(name, 16, "merged") / t(name, 8, "merged")
        assert mrg_retreat < t(name, 16, "standard") / t(name, 8, "standard")
        assert mrg_retreat < 1.10, \
            f"{name}: merged Pz=16 should not retreat ({mrg_retreat:.2f})"
        for pz in (8, 16):
            # 3% slack on the first step: a real schedule vs a real schedule.
            assert t(name, pz, "merged") < 1.03 * t(name, pz, "standard")
    for pz in pzs:
        # Planar: merging is at worst a small perturbation.
        std, mrg = (t("K2D5pt4096", pz, v) for v in ("standard", "merged"))
        assert abs(std - mrg) < 0.15 * std


def _per_block_25d(plan3, sf, tf, grid3, c: int, volume):
    """Rewrite ``plan3``'s ancestor levels, in place, into the per-block
    2.5D schedule (Solomonik-Demmel right-looking LU) over the first
    ``min(c, width)`` layers of each forest's range, as ordinary task
    arrays: the home layer factors panel ``k`` and broadcasts it in-layer
    as before; layer ``d(k)`` (``k``'s position in its forest, mod the
    group size) gets it by a second ``PANEL_BCAST`` over an interned
    z-communicator (the home owner plus the layer's row / column) and
    accumulates ``k``'s Schur update into its own replica; before panel
    ``j`` is factored a ``PANEL_BCAST``-kind task per block of the panel
    sums its partials onto the home owner (one message per holding layer,
    the reduce-add on the owner). Partials on higher levels' blocks go
    home in ``AncestorReduce`` hops ahead of the level's pairwise ones.
    Cost-only: the walk reads list order, so the rewritten levels carry
    no dependency edges."""
    pxy, sizes = grid3.pxy, sf.layout.sizes()
    lp, up = sf.fill.lpanel, sf.fill.upanel
    layer = grid3.layer(0)
    for li, step in enumerate(plan3.levels):
        group = min(c, 2 ** (tf.l - step.level))
        if group == 1 or step.arrays is None:
            continue
        A, cols = step.arrays, []
        comm_id = {tuple(cm): n for n, cm in enumerate(A.comms)}

        def comm(ranks):
            return comm_id.setdefault(tuple(ranks), len(comm_id))

        d_of, base = {}, {}
        for gp in step.grid_plans:
            for pos, k in enumerate(gp.nodes):
                d_of[k], base[k] = pos % group, gp.base
        partials = defaultdict(set)     # (home base, i, j) -> layers
        for k, d in d_of.items():
            for i in lp[k].tolist() if d else ():
                for j in up[k].tolist():
                    partials[base[k], i, j].add(d)
        for t in range(A.n_tasks):
            k, kind = int(A.node[t]), int(A.kind[t])
            d, lo, hi = d_of[k], A.bc_ptr[t], A.bc_ptr[t + 1]
            specs = list(zip(A.bc_root[lo:hi].tolist(),
                             A.bc_comm[lo:hi].tolist(),
                             A.bc_words[lo:hi].tolist(),
                             A.bc_route[lo:hi].tolist()))
            if kind == PANEL_FACTOR:
                panel = [(k, k), *((k, j) for j in up[k].tolist()),
                         *((i, k) for i in lp[k].tolist())]
                for i, j in panel:
                    srcs = sorted(partials.pop((base[k], i, j), ()))
                    if srcs:
                        o = base[k] + layer.owner(i, j)
                        w = float(volume.cap(i, j, float(sizes[i] * sizes[j])))
                        cols.append((PANEL_BCAST, k, i, j, o, w * len(srcs), [
                            (o + s * pxy, comm((o + s * pxy, o)), w, -1)
                            for s in srcs], ()))
            elif kind == PANEL_BCAST and d:
                specs += [(root, comm((root, *(r + d * pxy
                                               for r in A.comms[cm]))), w, -1)
                          for root, cm, w, _route in specs]
            lo, hi = A.pair_ptr[t], A.pair_ptr[t + 1]
            cols.append((kind, k, int(A.bi[t]), int(A.bj[t]),
                         int(A.owner[t]), float(A.flops[t]), specs,
                         zip((A.pair_owner[lo:hi] + d * pxy).tolist(),
                             A.pair_flops[lo:hi].tolist())))
        kind, node, bi, bj, owner, flops, specs, pairs = zip(*cols)
        specs, pairs = [list(x) for x in specs], [list(x) for x in pairs]
        flat = [s for sp in specs for s in sp]
        pair = [p for ps in pairs for p in ps]
        T = len(cols)
        arrays = TaskArrays.assemble(
            tid=A.tid[0] + np.arange(T), kind=np.array(kind, np.int8),
            node=np.array(node), bi=np.array(bi), bj=np.array(bj),
            side=np.zeros(T, np.int8), owner=np.array(owner),
            flops=np.array(flops), dep_ptr=np.zeros(T + 1, np.int64),
            dep_idx=np.zeros(0, np.int64),
            bc_ptr=csr_ptr([len(sp) for sp in specs]),
            bc_root=np.array([s[0] for s in flat], np.int64),
            bc_comm=np.array([s[1] for s in flat], np.int64),
            bc_words=np.array([s[2] for s in flat], np.float64),
            bc_route=np.array([s[3] for s in flat], np.int64),
            comms=[list(cm) for cm in comm_id],
            pair_ptr=csr_ptr([len(ps) for ps in pairs]),
            pair_owner=np.array([p[0] for p in pair], np.int64),
            pair_flops=np.array([p[1] for p in pair], np.float64))
        home = defaultdict(list)        # (home base, layer) -> blocks
        for (b, i, j), srcs in sorted(partials.items()):
            for s in srcs:
                home[b, s].append((i, j))
        ends = []
        for (b, s), blocks in sorted(home.items()):
            ii, jj = (np.array(x, dtype=np.int64) for x in zip(*blocks))
            own = layer.owner_pairs(ii, jj) + b
            ends.append(AncestorReduce(
                tid=-1, dst_grid=b // pxy, src_grid=b // pxy + s,
                below_level=step.level, rows=ii, cols=jj,
                words=volume.cap_many(ii, jj, sizes[ii] * sizes[jj] * 1.0),
                srcs=own + s * pxy, dsts=own))
        plan3.levels[li] = LevelStep(
            level=step.level, grid_plans=step.grid_plans,
            reduces=ends + step.reduces, barrier=step.barrier,
            arrays=arrays, grid_ptr=np.array([0, T]))


def test_per_block_25d_loses_to_merged(suite):
    """Section VII's other remedy, "a dense 2.5D LU ... on levels where we
    only use a subset of 2D grids", written out as a per-block schedule
    (:func:`_per_block_25d`) on the Serena and nlpkkt80 proxies at
    Pz = 16: it does not beat merging the grids, in makespan or in
    W_total, at any replication factor — the decision EXPERIMENTS.md
    records (``c > 1`` was deleted). Each Schur update still runs on one
    layer's ranks, right after its panel and before the next, so the
    chain that bounds the standard schedule stays, with z-hops added."""
    pz, cs = 16, (2, 4, 8, 16)
    grid3 = ProcessGrid3D.from_total(P, pz)
    rows, data = [], {}
    for name in ("Serena", "nlpkkt80"):
        pm = suite[name]
        sf, tf = pm.sf, pm.partition(pz)
        data[name, "merged"] = simulate(pm, pz, driver=factor_3d_merged)[0]
        for c in cs:
            bundle = PlanBundle.build(sf, tf, grid3, FactorOptions())
            _per_block_25d(bundle.plan3, sf, tf, grid3, c, DenseVolume())
            data[name, c] = cost_only(sf, tf, options=FactorOptions(),
                                      cached=bundle)[0]
        mrg = data[name, "merged"]
        rows += [[name, c, data[name, c].makespan * 1e3,
                  data[name, c].makespan / mrg.makespan,
                  data[name, c].w_total_max / mrg.w_total_max]
                 for c in cs]
    print()
    print(format_table(
        ["matrix", "c", "T 2.5D [ms]", "T / T merged", "W / W merged"],
        rows, title=f"Per-block 2.5D ancestors vs merged grids, P={P}, "
                    f"Pz={pz}"))
    for name in ("Serena", "nlpkkt80"):
        mrg = data[name, "merged"]
        for c in cs:
            assert data[name, c].makespan > 1.2 * mrg.makespan
            assert data[name, c].w_total_max > 1.2 * mrg.w_total_max
            # Same arithmetic, plus one add per reduced word.
            assert data[name, c].total_flops < 1.002 * mrg.total_flops


@pytest.mark.slow
def test_topology_sensitivity(suite):
    """Footnote 1 concedes that "the network topology ... may increase the
    asymptotic complexity" of the flat alpha-beta analysis. Under a flat
    network, an Edison-like dragonfly and a 3D torus the algorithm sends the
    same messages (volumes and counts identical), the non-uniform models
    really do re-price them (in either direction: intra-node discounts can
    outweigh global hops), and every Fig. 9 shape conclusion survives."""
    topologies = {
        "flat": None,
        "dragonfly": DragonflyTopology(ranks_per_node=6, nodes_per_group=8),
        "torus": Torus3D(6, 4, 4),
    }
    pzs = (1, 8, 16)
    data = {name: {(tn, pz): simulate(suite[name], pz, topology=topo)[0]
                   for tn, topo in topologies.items() for pz in pzs}
            for name in ("K2D5pt4096", "nlpkkt80")}
    print()
    print(format_table(
        ["matrix", "network", "T(1)", "T(8)/T(1)", "T(16)/T(1)"],
        [[name, tn] + [g[(tn, pz)].makespan / g[(tn, 1)].makespan
                       for pz in pzs]
         for name, g in data.items() for tn in topologies],
        title=f"Topology sensitivity — normalized time, P={P}"))

    for name, g in data.items():
        assert len({g[(tn, 8)].w_total_max for tn in topologies}) == 1
        assert len({g[(tn, 8)].msgs_max for tn in topologies}) == 1
        for tn in ("dragonfly", "torus"):
            assert g[(tn, 8)].makespan != g[("flat", 8)].makespan
    k2d, nlp = data["K2D5pt4096"], data["nlpkkt80"]
    for tn in topologies:
        # Planar: 3D wins under every network, monotone to Pz=16.
        assert k2d[(tn, 8)].makespan < k2d[(tn, 1)].makespan
        assert k2d[(tn, 16)].makespan < k2d[(tn, 8)].makespan
        # Non-planar: gains at Pz=8, retreats by Pz=16.
        assert nlp[(tn, 8)].makespan < nlp[(tn, 1)].makespan
        assert nlp[(tn, 16)].makespan > nlp[(tn, 8)].makespan * 0.95


def test_solve_phase_under_3d_layout():
    """Beyond the paper (the authors' follow-up topic): solving where
    Algorithm 1 left the factors inherits tree parallelism — leaf forests
    solve concurrently across layers, only the replicated ancestors
    serialize — so solve time and per-rank solve volume fall with Pz and
    the solve stays a small fraction of the factorization. Numeric, so the
    tiny planar proxy on 16 ranks."""
    ranks = 16
    tm = {m.name: m for m in paper_suite("tiny")}["K2D5pt4096"]
    b = np.ones(tm.n)
    rows = []
    for pz in (1, 2, 4, 8):
        px = int((ranks // pz) ** 0.5)
        while (ranks // pz) % px:
            px -= 1
        solver = SparseLU3D(tm.A, geometry=tm.geometry, px=px,
                            py=ranks // pz // px, pz=pz,
                            leaf_size=tm.leaf_size, max_block=tm.max_block,
                            machine=Machine.edison_like())
        solver.factorize()
        t_fact = solver.sim.makespan
        x = solver.solve(b, refine=False)
        rows.append([pz, t_fact, solver.sim.makespan - t_fact,
                     solver.sim.words_per_rank("solve").max(),
                     float(np.linalg.norm(tm.A @ x - b))])
    print()
    print(format_table(
        ["Pz", "T_fact [ms]", "T_solve [ms]", "W_solve/rank", "residual"],
        [[pz, tf * 1e3, ts * 1e3, w, r] for pz, tf, ts, w, r in rows],
        title=f"Solve phase under the 3D layout, P={ranks} ranks (numeric)"))

    assert all(r < 1e-8 for *_, r in rows)
    t_solve = {pz: ts for pz, _, ts, _, _ in rows}
    assert min(t_solve[2], t_solve[4], t_solve[8]) < t_solve[1]
    assert rows[-1][3] < rows[0][3]
    for pz, tf, ts, _, _ in rows:
        assert ts < 0.6 * tf, f"Pz={pz}: solve not cheap ({ts} vs {tf})"
