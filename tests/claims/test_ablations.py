"""Design ablations (DESIGN.md section 5): each choice the reproduction makes,
swept against its alternatives on the Table III proxies at 96 ranks."""

import numpy as np

from repro.analysis import format_table
from repro.experiments import (
    PreparedMatrix,
    paper_suite,
    pz_sweep,
    run_configuration,
)
from repro.lu2d import FactorOptions
from repro.model import optimal_pz_planar
from repro.model.optimum import best_communication_reduction_nonplanar
from repro.ordering import (
    minimum_degree_order,
    nested_dissection,
    relax_supernodes,
    tree_from_order,
)
from repro.symbolic import symbolic_factorize
from repro.tree import critical_path_cost, greedy_partition, naive_partition
from tests.claims.conftest import P, cost_only, simulate


def test_lookahead_window(suite):
    """Section II-F: any window beats the synchronous schedule, returns
    diminish (why SuperLU_DIST caps it at 8-20), pipelining reorders the
    communication without changing its volume, and buffers grow with it."""
    windows = (0, 2, 8, 32)
    rows = []
    for w in windows:
        m = run_configuration(suite["K2D5pt4096"], P=P, pz=1,
                              options=FactorOptions(lookahead=w)).metrics
        rows.append([w, m.makespan, m.w_fact_max, m.mem_peak_max, m.t_comm])
    print()
    print(format_table(
        ["window", "T[s]", "W_fact", "peak mem", "T_comm[s]"], rows,
        title=f"Ablation — lookahead window on K2D5pt proxy, {P} ranks (2D)"))

    t = {r[0]: r[1] for r in rows}
    vol = {r[0]: r[2] for r in rows}
    mem = {r[0]: r[3] for r in rows}
    assert t[8] < t[0], "lookahead=8 should beat synchronous"
    assert t[2] < t[0]
    assert t[8] - t[32] < 0.5 * (t[0] - t[8]), "expected diminishing returns"
    assert all(abs(vol[w] - vol[0]) / vol[0] < 1e-9 for w in windows)
    assert mem[32] >= mem[8] >= mem[0]
    assert mem[32] > mem[0]


def test_nested_dissection_vs_minimum_degree():
    """The premise the paper does not argue: minimum degree gives comparable
    fill but a tall, skinny tree, so the tree-forest partition finds no
    independent subtrees and the 3D algorithm's gain evaporates."""
    pz = 8
    # Minimum degree is O(n * degree^2) in pure Python: the tiny proxy.
    tm = {m.name: m for m in paper_suite("tiny")}["K2D5pt4096"]
    sfs = {
        "ND": symbolic_factorize(tm.A, tm.geometry, leaf_size=tm.leaf_size,
                                 max_block=tm.max_block),
        "MD": symbolic_factorize(tm.A, tree=tree_from_order(
            tm.A, minimum_degree_order(tm.A), max_block=tm.max_block)),
    }

    def run(sf, pz):
        tf = greedy_partition(sf, pz)
        return (cost_only(sf, tf)[0].makespan,
                critical_path_cost(tf, sf.costs.node_flops))

    data = {}
    for label, sf in sfs.items():
        t1, _ = run(sf, 1)
        t8, cp8 = run(sf, pz)
        data[label] = dict(height=sf.tree.height(), fill=sf.costs.total_words,
                           cp=cp8 / sf.costs.total_flops, t1=t1, t8=t8)
    print()
    print(format_table(
        ["ordering", "tree height", "fill words", f"CP{pz}/seq", "T(Pz=1) ms",
         f"T(Pz={pz}) ms", "3D speedup"],
        [[k, d["height"], d["fill"], d["cp"], d["t1"] * 1e3, d["t8"] * 1e3,
          d["t1"] / d["t8"]] for k, d in data.items()],
        title=f"Ablation — ND vs minimum degree, P={P}, Pz={pz} "
              "(planar proxy, tiny scale)"))

    nd, md = data["ND"], data["MD"]
    assert md["height"] > 2 * nd["height"]
    # ND's partition shortens the critical path more.
    assert nd["cp"] < 0.35
    assert md["cp"] > nd["cp"] * 1.3
    # ND wins end to end at both Pz although MD's fill is comparable or
    # lower: the deep tree serializes the panel pipeline. (MD's *relative*
    # 3D gain can look larger only because its 2D baseline is so slow.)
    assert md["fill"] < 1.5 * nd["fill"]
    assert nd["t1"] < md["t1"]
    assert nd["t8"] * 5 < md["t8"]


def test_greedy_vs_naive_partition(suite):
    """Section III-C / Fig. 8: the greedy load-balance heuristic never loses
    to the plain nested-dissection split, and wins on a cost-skewed tree
    (one subtree's leaves 20x heavier: a matrix with a much denser corner
    whose separators stay cheap, which the naive split cannot rebalance)."""
    rows = []
    for name in ("audikw_1", "CoupCons3D", "dielFilterV3real", "ldoor"):
        pm = suite[name]
        w = pm.sf.costs.node_flops
        for pz in (4, 8):
            cg = critical_path_cost(pm.partition(pz, "greedy"), w)
            cn = critical_path_cost(pm.partition(pz, "naive"), w)
            rows.append([name, pz, cg, cn, cn / cg])

    sf = suite["K2D5pt4096"].sf
    is_leaf = ~np.isin(np.arange(sf.nb), sf.tree.parent)
    w_skew = np.where(is_leaf, 100.0, 1.0)
    # Descend the root's supernode chain to the first real branching node;
    # one of its two region subtrees becomes the heavy corner.
    branch = sf.tree.root
    while len(sf.tree.children_of(branch)) == 1:
        branch = sf.tree.children_of(branch)[0]
    heavy = np.zeros(sf.nb, dtype=bool)
    heavy[sf.tree.subtree_of(sf.tree.children_of(branch)[0])] = True
    w_skew[heavy & is_leaf] *= 20.0
    for pz in (2, 4, 8):
        cg = critical_path_cost(greedy_partition(sf, pz, weights=w_skew),
                                w_skew)
        cn = critical_path_cost(naive_partition(sf, pz, weights=w_skew),
                                w_skew)
        rows.append(["K2D5pt-skewed", pz, cg, cn, cn / cg])

    t = {s: run_configuration(suite["Serena"], P=P, pz=8,
                              strategy=s).metrics.makespan
         for s in ("greedy", "naive")}
    print()
    print(format_table(
        ["matrix", "Pz", "CP greedy", "CP naive", "naive/greedy"], rows,
        title="Ablation — greedy vs naive etree partition (critical-path cost)"))
    print(f"Serena end-to-end makespan: greedy={t['greedy']:.4f}s "
          f"naive={t['naive']:.4f}s")

    for name, pz, cg, cn, _ in rows:
        assert cg <= cn * (1 + 1e-9), f"{name} pz={pz}: greedy worse than naive"
    assert any(r[4] > 1.10 for r in rows if r[0] == "K2D5pt-skewed"), \
        "greedy should strictly beat naive on the skewed tree"
    assert t["greedy"] <= t["naive"] * 1.05


def test_optimal_pz_rule(suite):
    """Section IV-B/C: Eq. (8)'s Pz* = log2(n)/2 minimizes the *asymptotic*
    factorization-phase model; the paper's own measurements put the finite-n
    total-volume crossover much later ("after Pz > 64"). So: Pz* already
    captures a large share of the W_fact gain, W_fact keeps falling past
    it, and W_total turns back up beyond it (the W_red crossover). The
    non-planar best reduction is a constant in the ballpark of the 2.89x
    bound."""
    data = {}
    for name in ("K2D5pt4096", "nlpkkt80"):
        recs = pz_sweep(suite[name], 4 * P, (1, 2, 4, 8, 16, 32, 64))
        data[name] = [(r.pz, r.metrics.w_fact_max, r.metrics.w_total_max,
                       r.metrics.makespan * 1e3) for r in recs]
    print()
    print(format_table(
        ["matrix", "Pz", "W_fact", "W_total", "T[ms]"],
        [[name, *r] for name, recs in data.items() for r in recs],
        title=f"Ablation — Pz sweep vs Eq. (8), P={4 * P} ranks"))

    recs = data["K2D5pt4096"]
    pz_star = optimal_pz_planar(suite["K2D5pt4096"].sf.n)
    wfact = {r[0]: r[1] for r in recs}
    wtot = {r[0]: r[2] for r in recs}
    pzs = sorted(wfact)
    crossover = next((b for a, b in zip(pzs, pzs[1:]) if wtot[b] > wtot[a]),
                     None)
    print(f"planar: Eq.(8) Pz*={pz_star}, W_fact(1)/W_fact(Pz*)="
          f"{wfact[1] / wfact[pz_star]:.2f}x, W_total crossover at "
          f"Pz={crossover}")
    assert pz_star in wfact
    assert wfact[pz_star] < wfact[1] / 3, \
        "Eq. (8)'s Pz should already cut W_fact by a large factor"
    assert all(wfact[a] >= wfact[b] for a, b in zip(pzs, pzs[1:])), \
        "W_fact should decrease monotonically with Pz"
    assert crossover is not None and crossover > pz_star, \
        "W_total crossover should exist and lie beyond Eq. (8)'s Pz"

    recs = data["nlpkkt80"]
    red = recs[0][2] / min(r[2] for r in recs)
    bound = best_communication_reduction_nonplanar()
    print(f"non-planar: measured best W_total reduction {red:.2f}x, "
          f"analytic bound {bound:.2f}x")
    assert 1.3 < red < 3.0 * bound


def test_supernode_relaxation(suite):
    """SuperLU's ``relax``: on a fine-grained (leaf=16) dissection, merging
    small blocks trades a bounded fill increase for far fewer blocks and
    messages, and a moderate setting strictly improves the modeled time."""
    pz, relax = 4, (1, 16, 48, 96)  # 1 = no-op baseline
    data = {}
    for name in ("K2D5pt4096", "Serena"):
        tm = suite[name].tm
        base = nested_dissection(tm.A, tm.geometry, leaf_size=16,
                                 max_block=tm.max_block)
        data[name] = {}
        for r in relax:
            sf = symbolic_factorize(tm.A, tree=relax_supernodes(
                base, min_size=r, max_block=tm.max_block))
            m = cost_only(sf, greedy_partition(sf, pz))[0]
            data[name][r] = (sf.nb, m.msgs_max, sf.costs.total_words,
                             m.makespan)
    print()
    print(format_table(
        ["matrix", "relax", "#blocks", "max msgs/rank", "fill words",
         "T [ms]"],
        [[name, r, nb, msgs, words, t * 1e3] for name, by in data.items()
         for r, (nb, msgs, words, t) in by.items()],
        title=f"Ablation — supernode relaxation, P={P}, Pz={pz}, leaf=16"))

    for name, by in data.items():
        for a, b in zip(relax, relax[1:]):
            assert by[b][0] <= by[a][0], f"{name}: blocks not decreasing"
            # Up to small block-cyclic remapping wobble (5%).
            assert by[b][1] <= 1.05 * by[a][1], \
                f"{name}: messages not decreasing"
        assert by[48][2] < 3.0 * by[1][2], f"{name}: fill blow-up"
        assert min(by[16][3], by[48][3]) < by[1][3], \
            f"{name}: relaxation should pay off at leaf=16"


def test_sparse_broadcast_pruning(suite):
    """Section IV charges every panel broadcast to the full process row /
    column; SuperLU_DIST prunes its trees to the ranks owning an update
    target (``FactorOptions(sparse_bcast=True)``). Pruning cuts volume on
    both classes without changing a flop, saves more where panels are
    sparser (planar), and leaves Fig. 9's Pz ordering as it was."""
    pzs = (1, 4, 16)
    data = {name: {(pz, sb): simulate(suite[name], pz, options=FactorOptions(
                       sparse_bcast=sb))[0] for pz in pzs for sb in (False, True)}
            for name in ("K2D5pt4096", "Serena")}
    print()
    print(format_table(
        ["matrix", "Pz", "W flat", "W pruned", "reduction", "T flat [ms]",
         "T pruned [ms]"],
        [[name, pz, g[(pz, False)].w_fact_max, g[(pz, True)].w_fact_max,
          g[(pz, False)].w_fact_max / g[(pz, True)].w_fact_max,
          g[(pz, False)].makespan * 1e3, g[(pz, True)].makespan * 1e3]
         for name, g in data.items() for pz in pzs],
        title=f"Ablation — flat vs sparsity-pruned broadcasts, P={P}"))

    for name, g in data.items():
        for pz in pzs:
            assert g[(pz, True)].w_fact_max < g[(pz, False)].w_fact_max, \
                f"{name} Pz={pz}: pruning saved nothing"
            assert g[(pz, True)].total_flops == g[(pz, False)].total_flops
        assert sorted(pzs, key=lambda pz: g[(pz, False)].makespan) \
            == sorted(pzs, key=lambda pz: g[(pz, True)].makespan)
    red = {name: g[(1, False)].w_fact_max / g[(1, True)].w_fact_max
           for name, g in data.items()}
    assert red["K2D5pt4096"] > red["Serena"]


def test_supernode_cap(suite):
    """DESIGN.md decision 1 (``max_block``, SuperLU's maxsup): uncapped, a
    top separator is one block whose diagonal factorization serializes on
    one rank; capped too small, per-message overhead dominates. Moderate
    caps beat both ends on the non-planar proxy."""
    import dataclasses
    caps = (16, 64, 128, 100000)  # 100000 = effectively uncapped
    rows = []
    for cap in caps:
        pm = PreparedMatrix(dataclasses.replace(suite["Serena"].tm,
                                                max_block=cap))
        m = run_configuration(pm, P=P, pz=4).metrics
        rows.append([cap, pm.sf.nb, m.makespan, m.t_scu, m.msgs_max])
    print()
    print(format_table(
        ["max_block", "#blocks", "T[s]", "T_scu[s]", "max msgs/rank"], rows,
        title=f"Ablation — supernode cap on Serena proxy, {P} ranks, Pz=4"))

    t = {r[0]: r[2] for r in rows}
    msgs = {r[0]: r[4] for r in rows}
    assert min(t[64], t[128]) < t[100000], \
        "capping supernodes should beat monolithic separators"
    assert min(t[64], t[128]) < t[16], \
        "moderate caps should beat the latency-bound tiny cap"
    # Tiny caps explode the per-rank message count (the latency term).
    assert msgs[16] > 2 * msgs[128]
    assert msgs[16] > 2 * msgs[100000]
