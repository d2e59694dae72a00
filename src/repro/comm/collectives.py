"""Tree-structured collectives built from simulator point-to-point events.

SuperLU_DIST implements its panel broadcasts as asynchronous binary-tree
broadcasts over the process row/column communicators; we model the same
shape with binomial trees. Because every hop is a real simulated message,
per-rank volume, message counts, and critical-path timing all fall out of
the point-to-point ledgers with no special-casing, and Σ sent = Σ received
holds by construction.

A broadcast is its :func:`tree_pattern` — a flat list of matched pairs —
booked with one :meth:`repro.comm.Simulator.book` call, exactly as the
plan builders (:mod:`repro.plan.arrays`, :mod:`repro.plan.solve`) flatten
theirs into a plan's event stream; only a fault injector or a subclass
gets the pairs one by one from ``book`` itself.
"""

from __future__ import annotations

import numpy as np

from repro.comm.simulator import Simulator
from repro.comm.stream import EventStream

__all__ = ["bcast", "reduce_pairwise", "tree_pattern"]


def tree_pattern(route: int, root: int, comm) -> tuple[list, list, list]:
    """``(srcs, dsts, receivers)`` of one broadcast over ``comm``: the
    exact pair sequence :func:`bcast` issues — the routing hop ``route ->
    root`` first (``route < 0``: none), then the binomial spans over
    ``[root] + others``, relays forwarding only after they have received —
    and the ranks charged a receive buffer, in communicator order. It
    depends only on the three arguments, so a plan computes it once per
    distinct triple."""
    order = [root] + [r for r in comm if r != root]
    srcs, dsts = ([route], [root]) if route >= 0 else ([], [])
    p, span = len(order), 1
    while span < p:
        n = min(span, p - span)
        srcs += order[:n]
        dsts += order[span:span + n]
        span *= 2
    return srcs, dsts, order[1:]


def bcast(sim: Simulator, root: int, ranks: list[int], words: float) -> None:
    """Binomial-tree broadcast of ``words`` from ``root`` to ``ranks``
    (the participant list; ``root`` must be a member)."""
    if root not in ranks:
        raise ValueError(f"root {root} not among participants {ranks}")
    if words < 0:
        raise ValueError("words must be non-negative")
    srcs, dsts, _receivers = tree_pattern(-1, root, ranks)
    sim.book(EventStream.pairs(srcs, dsts, np.full(len(srcs), float(words))))


def reduce_pairwise(sim: Simulator, src: int, dst: int, words: float,
                    add_flops: float | None = None) -> None:
    """One hop of Algorithm 1's Ancestor-Reduction: ``dst += src``.

    The receiver pays the element-wise addition (``add_flops`` defaults to
    one flop per word, the cost of summing the two block copies).
    """
    if words < 0:
        raise ValueError("words must be non-negative")
    sim.send(src, dst, words)
    sim.recv(dst, src)
    flops = words if add_flops is None else add_flops
    sim.compute(dst, flops, "reduce_add")
