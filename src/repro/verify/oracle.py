"""Independent oracles: ledger conservation and numeric factor checks.

Two families of cross-checks that don't trust the code paths they verify:

* **Ledger conservation** — the simulator's per-rank ledgers, summed,
  must satisfy invariants that hold mechanically for any causally valid
  schedule (every word sent is received, every send event has a matching
  recv event) and must agree with the plan's *reduction*:
  ``plan.volume()`` derives every rank's words and messages per phase and
  flops per kind from the plan's event streams with no simulator and no
  clock, so a dynamic run that booked anything else — on any rank, by one
  bit — executed a different schedule than it planned. The two
  derivations share the stream columns and nothing else: one is a sum,
  the other a walk.

  These invariants hold for a **fault-free run**: fault injection
  retransmits dropped messages (the sender books extra traffic the
  receiver never sees, deliberately breaking send/recv symmetry). The
  triangular solves book events the factorization plan doesn't describe,
  so :func:`conservation_issues` is applied either between
  ``factorize()`` and ``solve()`` or with every sweep booked since named
  in ``solves`` (each a :class:`repro.plan.solve.SolvePlan` and its
  right-hand-side count, reduced the same way under phase ``solve``) —
  which is how the CLI's ``--verify-plan`` and the tests use it.

* **Numeric factors** — the packed factors are checked against dense
  references that share no code with the block kernels:
  ``||L@U - A||_F / ||A||_F`` for LU (no pivoting across block rows, so
  the residual is exact up to conditioning), and
  ``scipy.linalg.cholesky`` for the SPD variant.
"""

from __future__ import annotations

import numpy as np

from repro.comm.events import COMPUTE_KINDS, PHASE_FACT, PHASE_RED, \
    PHASE_SOLVE, PHASES
from repro.comm.simulator import Simulator
from repro.comm.stream import Volume

__all__ = ["VerificationError", "ledger_state", "conservation_issues",
           "check_conservation", "lu_residual", "cholesky_error",
           "verify_factors"]


class VerificationError(AssertionError):
    """An oracle cross-check failed."""


def ledger_state(sim: Simulator) -> dict:
    """Full ledger state as plain lists/ints, comparable with ``==``.

    Same shape as the golden-ledger files: :meth:`Simulator.ledgers
    <repro.comm.Simulator.ledgers>` (per-rank clocks, memory, per-kind
    flops/compute-time, per-phase traffic), then the event counts.
    Two runs with equal ``ledger_state`` are bit-for-bit
    indistinguishable to every analysis built on the simulator.
    """
    out: dict = {k: a.tolist() for k, a in sim.ledgers().items()}
    out["event_counts"] = {k: int(v) for k, v in sim.event_counts.items()}
    return out


def conservation_issues(sim: Simulator, plan=None, solves=()) -> list[str]:
    """Conservation/plan-reduction discrepancies (empty list = clean).

    Valid on a fault-free simulator — see the module docstring. With
    ``plan`` given (a ``GridPlan`` or a ``Plan3D``, executed once on a
    fresh ``sim``), also compares the factorization-phase (``fact``,
    ``red``) traffic and the per-kind flops with ``plan.volume()`` — per
    rank and exactly; with ``solves`` given (``(solve_plan, nrhs)`` per
    sweep booked on ``sim``), the solve-phase traffic and
    ``flops['solve']`` with their reduction likewise.
    """
    issues: list[str] = []
    for p in PHASES:
        ws = float(sim.words_sent[p].sum())
        wr = float(sim.words_recv[p].sum())
        if ws != wr:
            issues.append(f"phase {p!r}: {ws} words sent != {wr} received")
        ms = int(sim.msgs_sent[p].sum())
        mr = int(sim.msgs_recv[p].sum())
        if ms != mr:
            issues.append(f"phase {p!r}: {ms} msgs sent != {mr} received")
    n_send = int(sim.event_counts.get("send", 0))
    n_recv = int(sim.event_counts.get("recv", 0))
    if n_send != n_recv:
        issues.append(f"event counts: {n_send} sends != {n_recv} recvs")
    if plan is not None or solves:
        vol = Volume(sim.nranks) if plan is None else plan.volume(sim.nranks)
        vol.phase = PHASE_SOLVE
        for solve_plan, nrhs in solves:
            vol.add(solve_plan.stream(nrhs))
        phases = ((PHASE_FACT, PHASE_RED) if plan is not None else ()) \
            + ((PHASE_SOLVE,) if solves else ())
        kinds = COMPUTE_KINDS if plan is not None else ("solve",)
        ledgers = [(f"{name}[{p}]", getattr(sim, name)[p],
                    getattr(vol, name)[p])
                   for name in ("words_sent", "words_recv", "msgs_sent",
                                "msgs_recv")
                   for p in phases]
        ledgers += [(f"flops[{k}]", sim.flops[k], vol.flops[k])
                    for k in kinds]
        for name, got, want in ledgers:
            bad = np.flatnonzero(got != want)
            if bad.size:
                r = int(bad[0])
                issues.append(
                    f"{name}: simulator booked {got[r]} on rank {r}, the "
                    f"plan's reduction gives {want[r]} ({bad.size} ranks "
                    "differ)")
    return issues


def check_conservation(sim: Simulator, plan=None, solves=()) -> None:
    """Raise :class:`VerificationError` on any conservation issue."""
    issues = conservation_issues(sim, plan, solves)
    if issues:
        raise VerificationError(
            "ledger conservation failed:\n  " + "\n  ".join(issues))


# -- numeric factor oracles ------------------------------------------------


def lu_residual(F: np.ndarray, A) -> float:
    """``||L@U - A||_F / ||A||_F`` for a packed dense LU factor.

    ``F`` packs unit-lower ``L`` (below the diagonal) and ``U`` (on and
    above it), the same convention the block kernels write.
    """
    F = np.asarray(F)
    n = F.shape[0]
    L = np.tril(F, -1) + np.eye(n)
    U = np.triu(F)
    Ad = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    denom = np.linalg.norm(Ad)
    return float(np.linalg.norm(L @ U - Ad) / max(denom, 1.0))


def cholesky_error(F: np.ndarray, A) -> float:
    """Max elementwise deviation of packed ``L`` from ``scipy`` Cholesky.

    Relative to the reference factor's largest entry; the symbolic layer
    guarantees no pivoting, so both factorizations compute the same
    (unique) lower-triangular factor.
    """
    import scipy.linalg

    Ad = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    Ad = np.tril(Ad) + np.tril(Ad, -1).T  # drivers factor the lower copy
    ref = scipy.linalg.cholesky(Ad, lower=True)
    L = np.tril(np.asarray(F))
    return float(np.abs(L - ref).max() / max(np.abs(ref).max(), 1.0))


def verify_factors(F: np.ndarray, A, backend: str = "lu",
                   tol: float = 1e-8) -> float:
    """Check factors against the dense reference; return the error.

    Raises :class:`VerificationError` above ``tol`` (loose enough for
    conditioning, tight enough that any schedule or kernel bug — which
    produces O(1) errors — is caught).
    """
    err = lu_residual(F, A) if backend != "cholesky" \
        else cholesky_error(F, A)
    if not np.isfinite(err) or err > tol:
        raise VerificationError(
            f"{backend} factor check failed: error {err:.3e} > {tol:.1e}")
    return err
