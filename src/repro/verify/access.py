"""Per-task block-access sets for plan verification.

This is the semantic model the static analyzer (:mod:`repro.verify.static`)
reads: what memory a task touches, in which mode. (Which simulated ranks
a task's ledger events land on — the schedule fuzzer's footprint — is
read off the plan's event stream, not re-derived here.)

Access modes
------------
``READ``
    The task consumes the block's current value.
``WRITE``
    Exclusive overwrite (a node's factor op: its diagonal block and L
    panel; an in-place U-panel solve).
``ACCUM``
    Additive update (``block -= L @ U``). Two accumulations into the same
    block commute — numerically up to floating-point reassociation, which
    is exactly why the fuzzer's factor tolerance is 1e-12 rather than
    bit-exact for schedules that may reorder them — so ``ACCUM``/``ACCUM``
    pairs are *not* conflicts. Every other same-block pairing (R/W, W/W,
    W/A, R/A) is a conflict and must be ordered by a dependency path.

Views
-----
Block keys are scoped by a *view*: each z-grid owns a full replica of
its ancestor blocks (:class:`repro.lu3d.replication.ReplicaManager`), so
grid ``g``'s ``(i, j)`` and grid ``g'``'s ``(i, j)`` are different
memory. A grid plan is numbered by its first z-layer and touches that
layer's replicas — a merged grid plan too, whatever ranks it spans — and
every reduce sums its source layer's replicas into its destination's.

A solve plan (:class:`repro.plan.solve.SolvePlan`) is modelled at segment
level: besides the factor blocks, which a sweep only reads, the memory is
the work vector's block-row segments ``("seg", k)``.
"""

from __future__ import annotations

from repro.plan.arrays import PANEL_BCAST, PANEL_FACTOR, SCHUR_UPDATE
from repro.plan.solve import DIAG_SOLVE
from repro.plan.tasks import AncestorReduce

__all__ = ["READ", "WRITE", "ACCUM", "conflicts",
           "grid_task_accesses", "reduce_accesses", "solve_task_accesses"]

READ = "R"
WRITE = "W"
ACCUM = "A"


def conflicts(m1: str, m2: str) -> bool:
    """Whether two same-block accesses require a dependency path."""
    if m1 == READ and m2 == READ:
        return False
    if m1 == ACCUM and m2 == ACCUM:
        return False
    return True


def grid_task_accesses(backend: str, sf, kind: int, node: int, bi: int,
                       bj: int) -> list[tuple[int, int, str]]:
    """``(i, j, mode)`` for every block a grid-plan task touches, given
    its ``kind`` code, ``node`` and block ``(bi, bj)`` (the columns of
    :class:`repro.plan.arrays.TaskArrays`).

    Mirrors the kernel backends (:mod:`repro.plan.backends`): the factor
    op solves the node's L panel too, so an L-panel task only sends the
    block it solved; the LU Schur update reads both panels and accumulates
    into the full ``lp x up`` cross product; the Cholesky one reads the L
    panel and accumulates into the lower triangle of its outer product.
    """
    if kind == PANEL_FACTOR:
        return [(i, node, WRITE) for i in [node, *sf.fill.lpanel[node].tolist()]]
    if kind == PANEL_BCAST:
        return [(bi, bj, READ)] if bi != node else [(node, node, READ), (bi, bj, WRITE)]
    if kind == SCHUR_UPDATE:
        k = node
        lp = [int(i) for i in sf.fill.lpanel[k]]
        acc: list[tuple[int, int, str]] = []
        if backend == "cholesky":
            for a, i in enumerate(lp):
                acc.append((i, k, READ))
                for j in lp[:a + 1]:
                    acc.append((i, j, ACCUM))
        else:
            up = [int(j) for j in sf.fill.upanel[k]]
            for i in lp:
                acc.append((i, k, READ))
            for j in up:
                acc.append((k, j, READ))
            for i in lp:
                for j in up:
                    acc.append((i, j, ACCUM))
        return acc
    return []


def reduce_accesses(task: AncestorReduce) -> list[tuple[int, int, int, str]]:
    """``(grid, i, j, mode)`` for an Ancestor-Reduction task, merged or
    not.

    The destination replica accumulates (``dst += src``), which commutes
    with the destination grid's own Schur accumulations into the same
    block; the source replica is only read.
    """
    out: list[tuple[int, int, int, str]] = []
    for i, j in zip(task.rows.tolist(), task.cols.tolist()):
        out.append((task.src_grid, int(i), int(j), READ))
        out.append((task.dst_grid, int(i), int(j), ACCUM))
    return out


def solve_task_accesses(plan, t: int) -> list[tuple[tuple, str]]:
    """``(key, mode)`` for task ``t`` of a solve plan: a diag-solve reads
    block ``(k, k)`` and overwrites its segment (keyed by first row); an
    update reads its panel block and the segment it multiplies, and
    accumulates into its target segment (two such commute)."""
    kind, i, j, t0, _t1, s0, _s1 = plan.steps[t].tolist()
    if kind == DIAG_SOLVE:
        return [(("blk", i, j), READ), (("seg", t0), WRITE)]
    return [(("blk", i, j), READ), (("seg", s0), READ), (("seg", t0), ACCUM)]
