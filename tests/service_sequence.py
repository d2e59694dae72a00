"""One client's ``service_mix`` sequence at small sizes, deterministic.

The six pattern kinds of the ``service_mix`` benchmark workload (three
``grid2d_5pt`` sizes, ``grid2d_9pt``, ``grid3d_7pt`` and an SPD
``grid3d_7pt`` under Cholesky) in one Zipf(1) deck of 49 requests
(20/10/7/5/4/3) that a seed shuffles, sent by one client to a
``FactorizationService(capacity=4, max_workers=1)``. Each job is dropped
before the next request, so its arena comes back by reference count.

Run ``PYTHONPATH=src python tests/service_sequence.py`` to print the
cache's counters at the end of the deck.
"""

from __future__ import annotations

import numpy as np

from repro import grid2d_5pt, grid2d_9pt, grid3d_7pt
from repro.service import FactorizationService

KINDS = ((grid2d_5pt, 12, "lu"), (grid2d_5pt, 14, "lu"),
         (grid2d_5pt, 16, "lu"), (grid2d_9pt, 12, "lu"),
         (grid3d_7pt, 5, "lu"), (grid3d_7pt, 6, "cholesky"))
DECK = (20, 10, 7, 5, 4, 3)     # requests per kind


def one_client_mix(seed: int = 0) -> tuple[list, float]:
    """Send the deck; return the cache's ``CacheStats`` after every
    request and the largest relative residual of the jobs."""
    patterns = [(*gen(n), backend) for gen, n, backend in KINDS]
    order = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(len(DECK)), DECK))
    after, worst = [], 0.0
    with FactorizationService(px=2, py=2, pz=2, leaf_size=16, capacity=4,
                              max_workers=1) as svc:
        for i, p in enumerate(order.tolist()):
            A, geom, backend = patterns[p]
            job = svc.solve(A * (1.0 + 0.01 * i), np.ones(A.shape[0]),
                            geometry=geom, backend=backend)
            worst = max(worst, job.residual)
            del job                     # its arena comes back here
            after.append(svc.cache.stats())
    return after, worst


if __name__ == "__main__":
    after, worst = one_client_mix()
    st = after[-1]
    print(f"one client, {len(after)} requests: hits {st.hits}, arena_loans "
          f"{st.arena_loans}, misses {st.misses}, refused {st.refused}, "
          f"evictions {st.evictions}, entries {st.entries}, idle_arenas "
          f"{st.idle_arenas} (at most entries after every request: "
          f"{all(s.idle_arenas <= s.entries for s in after)}); "
          f"max residual {worst:.1e}")
