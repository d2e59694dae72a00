"""Deterministic fault injection for the simulated runtime.

A :class:`FaultPlan` is an immutable, ordered list of typed
:class:`Fault` records. Faults come in four kinds:

* ``crash``  — a whole 2D grid's ranks fail and lose their in-memory
  replicas. Crashes are detected at task boundaries by the resilience
  engine (:mod:`repro.resilience.engine`) and recovered by the selected
  policy (``restart`` / ``z-replica``).
* ``drop``   — a matching point-to-point message is lost in the network;
  the sender times out and retransmits, paying the timeout plus a second
  full transfer (extra words/messages are booked on the ledgers).
* ``delay``  — a matching message's arrival is pushed back by ``delay``
  seconds (the sender's NIC is *not* held; only the receiver may wait).
* ``slow``   — a rank's compute events take ``slow_factor`` times longer
  from ``at_time`` on (a thermally throttled or oversubscribed node).

The mechanical kinds (drop/delay/slow) are applied by a
:class:`FaultInjector` attached to the simulator
(:meth:`repro.comm.Simulator.attach_faults`); every perturbation is a
pure function of the plan and the simulated clocks, so two runs of the
same schedule under the same plan produce bit-identical ledgers. With no
injector attached the simulator's fast paths are untouched and every
ledger stays bit-for-bit identical to a fault-free run.

Plans can be built three ways: literal ``FaultPlan([Fault(...), ...])``,
seeded ``FaultPlan.generate(seed, ...)`` (reproducible random plans for
sweeps), or parsed from a CLI spec string with ``FaultPlan.parse``
(``"crash:grid=1,level=1;slow:rank=3,factor=4"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["FAULT_KINDS", "Fault", "FaultPlan", "FaultInjector"]

#: Recognized fault kinds.
FAULT_KINDS = ("crash", "drop", "delay", "slow")


@dataclass(frozen=True)
class Fault:
    """One typed fault. Unset filters (``None``) match anything.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    grid / level / at_task:
        Crash scheduling: the z-grid to kill, the tree level at which to
        kill it, and/or the exact plan task id. A crash fires at the
        first task boundary matching every set filter, once; one that no
        boundary of the run can match is refused (``ValueError``).
    at_time:
        Simulated-time arming threshold (seconds). Crashes fire at the
        first matching task boundary at or after this time; mechanical
        faults ignore events before it.
    rank / src / dst:
        Rank filters: ``rank`` for ``slow`` (``None`` = every rank),
        ``src``/``dst`` for ``drop``/``delay`` message matching.
    delay:
        Added arrival latency (seconds) for ``delay`` faults.
    slow_factor:
        Compute-time multiplier for ``slow`` faults (must be >= 1).
    n_messages:
        How many matching messages a ``drop``/``delay`` fault consumes
        before it is spent.
    """

    kind: str
    grid: int | None = None
    level: int | None = None
    at_task: int | None = None
    at_time: float | None = None
    rank: int | None = None
    src: int | None = None
    dst: int | None = None
    delay: float = 0.0
    slow_factor: float = 2.0
    n_messages: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.n_messages < 1:
            raise ValueError("n_messages must be positive")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError("at_time must be non-negative")


#: Spec-string key -> (Fault field, type) for :meth:`FaultPlan.parse`.
_SPEC_KEYS = {
    "grid": ("grid", int),
    "level": ("level", int),
    "task": ("at_task", int),
    "at": ("at_time", float),
    "rank": ("rank", int),
    "src": ("src", int),
    "dst": ("dst", int),
    "delay": ("delay", float),
    "factor": ("slow_factor", float),
    "count": ("n_messages", int),
}


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered set of faults plus shared knobs.

    ``drop_timeout`` is the sender-side retransmission timeout charged
    per dropped message; ``None`` defaults to ``100 * machine.alpha``
    when the injector binds to a machine model.
    """

    faults: tuple[Fault, ...] = ()
    drop_timeout: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def crashes(self) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind == "crash")

    def mechanical(self) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind != "crash")

    # -- constructors ------------------------------------------------------

    @classmethod
    def generate(cls, seed: int, n_faults: int = 1,
                 kinds: tuple[str, ...] = FAULT_KINDS,
                 n_grids: int = 1, n_levels: int = 1, n_ranks: int = 1,
                 t_max: float = 0.0, delay: float = 1e-4,
                 slow_factor: float = 4.0) -> "FaultPlan":
        """A reproducible random plan: same seed, same faults, always.

        Crash faults target a random grid at a random level; mechanical
        faults target random ranks, armed at a random time in
        ``[0, t_max]``.
        """
        for k in kinds:
            if k not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {k!r}")
        rng = np.random.default_rng(seed)
        faults = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            at = float(rng.uniform(0.0, t_max)) if t_max > 0 else None
            if kind == "crash":
                faults.append(Fault(kind, grid=int(rng.integers(n_grids)),
                                    level=int(rng.integers(n_levels)),
                                    at_time=at))
            elif kind == "slow":
                faults.append(Fault(kind, rank=int(rng.integers(n_ranks)),
                                    slow_factor=slow_factor, at_time=at))
            else:
                faults.append(Fault(kind, src=int(rng.integers(n_ranks)),
                                    delay=delay, at_time=at))
        return cls(tuple(faults))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI spec: ``kind:key=val,...`` joined with ``;``.

        Example: ``"crash:grid=0,level=1;slow:rank=3,factor=4;``
        ``drop:src=2,count=2;delay:dst=1,delay=1e-4"``.
        """
        faults = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, rest = part.partition(":")
            kind = kind.strip()
            fault = Fault(kind)
            for item in filter(None, (s.strip() for s in rest.split(","))):
                key, _, val = item.partition("=")
                key = key.strip()
                if key not in _SPEC_KEYS:
                    raise ValueError(
                        f"unknown fault spec key {key!r} in {part!r}; "
                        f"expected one of {sorted(_SPEC_KEYS)}")
                name, cast = _SPEC_KEYS[key]
                fault = replace(fault, **{name: cast(val)})
            faults.append(fault)
        return cls(tuple(faults))


@dataclass
class _Armed:
    """Mutable per-run state of one mechanical fault."""

    fault: Fault
    remaining: int = field(default=0)

    def __post_init__(self):
        self.remaining = self.fault.n_messages


class FaultInjector:
    """Applies a plan's mechanical faults to simulator events.

    One injector serves one run: message-count state is consumed as
    faults fire, so the engine constructs a fresh injector per
    factorization. All decisions depend only on the plan and the
    simulated clocks — never on host state — keeping perturbed runs
    exactly replayable.
    """

    def __init__(self, plan: FaultPlan, machine):
        self.plan = plan
        self.machine = machine
        self.timeout = (plan.drop_timeout if plan.drop_timeout is not None
                        else 100.0 * machine.alpha)
        self._slow = [f for f in plan.mechanical() if f.kind == "slow"]
        self._drops = [_Armed(f) for f in plan.mechanical()
                       if f.kind == "drop"]
        self._delays = [_Armed(f) for f in plan.mechanical()
                        if f.kind == "delay"]
        self.fired = 0

    @staticmethod
    def _msg_match(f: Fault, src: int, dst: int, now: float) -> bool:
        return ((f.src is None or f.src == src)
                and (f.dst is None or f.dst == dst)
                and (f.at_time is None or now >= f.at_time))

    def scale_compute(self, rank: int, start: float, dt: float) -> float:
        """Inflate a compute event on a slowed rank."""
        for f in self._slow:
            if (f.rank is None or f.rank == rank) \
                    and (f.at_time is None or start >= f.at_time):
                dt *= f.slow_factor
        return dt

    def count_drops(self, src: int, dst: int, now: float) -> int:
        """How many times this message is dropped (-> retransmissions)."""
        n = 0
        for a in self._drops:
            if a.remaining and self._msg_match(a.fault, src, dst, now):
                a.remaining -= 1
                self.fired += 1
                n += 1
        return n

    def added_delay(self, src: int, dst: int, now: float) -> float:
        """Extra in-network latency added to this message's arrival."""
        d = 0.0
        for a in self._delays:
            if a.remaining and self._msg_match(a.fault, src, dst, now):
                a.remaining -= 1
                self.fired += 1
                d += a.fault.delay
        return d

    def n_fired_faults(self) -> int:
        """Mechanical faults that perturbed at least one event.

        Slow faults count as fired whenever present: they scale every
        matching compute event rather than consuming a message budget.
        """
        spent = sum(1 for a in self._drops + self._delays
                    if a.remaining < a.fault.n_messages)
        return spent + len(self._slow)
