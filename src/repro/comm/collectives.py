"""Tree-structured collectives as flat lists of matched pairs.

SuperLU_DIST implements its panel broadcasts as asynchronous binary-tree
broadcasts over the process row/column communicators; we model the same
shape with binomial trees. Every hop is a real simulated message, so
per-rank volume, message counts, and critical-path timing all fall out of
the point-to-point ledgers with no special-casing, and Σ sent = Σ received
holds by construction.

A broadcast is its :func:`tree_pattern`: the plan builders
(:mod:`repro.plan.arrays`, :mod:`repro.plan.solve`) flatten it into a
plan's event stream, which :meth:`repro.comm.Simulator.book` books.
"""

from __future__ import annotations

__all__ = ["tree_pattern"]


def tree_pattern(route: int, root: int, comm) -> tuple[list, list, list]:
    """``(srcs, dsts, receivers)`` of one broadcast over ``comm``: the
    routing hop ``route -> root`` first (``route < 0``: none), then the
    binomial spans over ``[root] + others``, relays forwarding only after
    they have received — and the ranks charged a receive buffer, in
    communicator order. It depends only on the three arguments, so a plan
    computes it once per distinct triple."""
    order = [root] + [r for r in comm if r != root]
    srcs, dsts = ([route], [root]) if route >= 0 else ([], [])
    p, span = len(order), 1
    while span < p:
        n = min(span, p - span)
        srcs += order[:n]
        dsts += order[span:span + n]
        span *= 2
    return srcs, dsts, order[1:]
