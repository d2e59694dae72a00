"""Extension bench: the complete Section VII ancestor-level design space.

The paper sketches two remedies for the shrunken-grid ancestor bottleneck
and defers both: (a) merge idle grids into a larger 2D grid, or (b) run a
dense 2.5D LU across the replication layers. Both are implemented here —
(a) as a real per-block schedule (`factor_3d_merged`), (b) as a
first-order cost model (`factor_3d` with
`FactorOptions(ancestor_replication=Pz)`) — and compared against
standard Algorithm 1. Expected ordering, from the analysis:

    standard  >=  merged  >=  2.5D      (modeled time, non-planar, big Pz)

because merging buys the extra ranks (`W ~ D/sqrt(c*Pxy)`) and 2.5D
additionally buys replication (`W ~ D/(c*sqrt(Pxy))`). For planar
matrices all three are within noise of each other — tiny separators leave
nothing to accelerate.
"""


from benchmarks.conftest import run_once, scale
from repro.analysis import FactorizationMetrics, format_table
from repro.comm import Machine, ProcessGrid3D, Simulator
from repro.experiments.harness import PreparedMatrix
from repro.experiments.matrices import paper_suite
from repro.lu2d import FactorOptions
from repro.lu3d import factor_3d
from repro.lu3d.merged import factor_3d_merged

P = 96
PZ_VALUES = (8, 16)
VARIANTS = ("standard", "merged", "dense25")


def _run(pm, pz, variant):
    grid3 = ProcessGrid3D.from_total(P, pz)
    sim = Simulator(grid3.size, Machine.edison_like())
    sf, tf = pm.sf, pm.partition(pz)
    if variant == "merged":
        factor_3d_merged(sf, tf, grid3, sim)
    else:
        c = pz if variant == "dense25" else 1
        factor_3d(sf, tf, grid3, sim, numeric=False,
                  options=FactorOptions(ancestor_replication=c))
    return FactorizationMetrics.from_simulator(sim)


def test_section7_ancestor_variants(benchmark):
    def run():
        suite = {tm.name: tm for tm in paper_suite(scale())}
        return {name: {(pz, v): _run(PreparedMatrix(suite[name]), pz, v)
                       for pz in PZ_VALUES for v in VARIANTS}
                for name in ("K2D5pt4096", "Serena", "nlpkkt80")}

    data = run_once(benchmark, run)

    rows = []
    for name, grid in data.items():
        for pz in PZ_VALUES:
            rows.append([name, pz] + [grid[(pz, v)].makespan * 1e3
                                      for v in VARIANTS])
    print()
    print(format_table(["matrix", "Pz"] + [f"T {v} [ms]" for v in VARIANTS],
                       rows,
                       title=f"Section VII ancestor-level variants, P={P}"))

    for name, grid in data.items():
        planar = name == "K2D5pt4096"
        for pz in PZ_VALUES:
            t_std = grid[(pz, "standard")].makespan
            t_mrg = grid[(pz, "merged")].makespan
            t_25 = grid[(pz, "dense25")].makespan
            if planar:
                # Little to win on tiny separators: all within 40%.
                assert max(t_std, t_mrg, t_25) < 1.4 * min(t_std, t_mrg, t_25)
            else:
                # The predicted ordering (with 3% slack on the first step,
                # which is a real schedule vs a real schedule).
                assert t_mrg < 1.03 * t_std
                assert t_25 < t_mrg, \
                    f"{name} Pz={pz}: 2.5D should beat merged"
        # At Pz=16 the non-planar gains are large (the regime Section VII
        # targets).
        if not planar:
            gain = grid[(16, "standard")].makespan / \
                grid[(16, "dense25")].makespan
            assert gain > 1.8, f"{name}: 2.5D gain only {gain:.2f}x"
