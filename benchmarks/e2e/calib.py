"""Host-speed calibration and span recording.

Raw wall-clock does not repeat on a shared host: machine-speed episodes of
0.2-2 s slow everything by 1.4-1.7x (see README, "Why normalise"). The
:class:`Clock` runs a short fixed probe — numpy/scipy work that does not
touch the program under test — around the timed code, and every duration
the harness reports is ``wall * CALIB_REF_S / probe``: seconds on a host
whose probe takes ``CALIB_REF_S``. Raw wall-clock is kept beside it.

The :class:`Recorder` keeps spans (``id, parent, op, name, start, end``) in
memory. Untraced ops record a handful of coarse spans (analyze / factor /
solve / check); the traced pass records one span per call into a layer.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg as la

#: Probe duration the reported seconds are normalised to: the quiet-state
#: probe time of the 2-core host the benchmark was sized on. A constant of
#: the harness — changing it rescales every ``*_s`` metric.
CALIB_REF_S = 0.0040

#: Ops at least this long get their own probe bracket; shorter spans share
#: the probes of the round they fall into.
MIN_PROBE_GAP_S = 0.050

now = time.perf_counter

_GEMM = np.full((48, 48), 0.01)
_SMALL = [np.ones((12, 12)) for _ in range(400)]
_TRI = np.tril(np.random.default_rng(0).standard_normal((32, 32))) + 32.0 * np.eye(32)
_RHS = np.ones((32, 64))


def probe() -> float:
    """Seconds for a fixed mix of small-matrix GEMMs, small-array numpy
    calls and scipy LAPACK wrappers — the instruction mix of this code
    base, which a tight pure-Python loop does not track (README)."""
    t0 = now()
    b = _GEMM.copy()
    for _ in range(300):
        b = _GEMM @ b
    for m in _SMALL:
        (m[:6, :6] + m[6:, 6:]).sum()
    for _ in range(50):
        la.solve_triangular(_TRI, _RHS, lower=True, unit_diagonal=True)
    return now() - t0


class Clock:
    """Probe samples over time, and the normalisation they imply.

    ``passes`` consecutive probes make one sample, their minimum. One pass
    is enough while the probing thread is busy between probes. A thread
    that sat idle during the op (waiting for a subprocess or for client
    threads) wakes up slow for a few milliseconds, which is not the
    machine's speed: such workloads take the fastest of three passes.
    """

    def __init__(self, passes: int = 1):
        probe()     # untimed: the first call pays numpy/scipy's lazy set-up
        self.passes = passes
        self.starts: list[float] = []   # sample start times, ascending
        self.ends: list[float] = []
        self.values: list[float] = []
        self._cum = [0.0]               # prefix sums of time spent probing

    def probe(self, passes: int | None = None) -> None:
        t0 = now()
        v = min(probe() for _ in range(passes or self.passes))
        t1 = now()
        self.starts.append(t0)
        self.ends.append(t1)
        self.values.append(v)
        self._cum.append(self._cum[-1] + (t1 - t0))

    def tick(self) -> None:
        """Probe unless one ended less than ``MIN_PROBE_GAP_S`` ago."""
        if not self.ends or now() - self.ends[-1] >= MIN_PROBE_GAP_S:
            self.probe()

    def probe_time_within(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` spent inside probes (they never straddle
        a span boundary: spans open and close outside probes)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return self._cum[hi] - self._cum[lo] if hi > lo else 0.0

    def scale(self, t0: float, t1: float) -> float:
        """``CALIB_REF_S / probe`` for the interval: the mean of the last
        probe before it, every probe inside it and the first one after."""
        lo = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.starts, t1) + 1, len(self.values))
        vals = self.values[lo:hi]
        if not vals:
            raise RuntimeError("no calibration probe has run yet")
        return CALIB_REF_S * len(vals) / sum(vals)


class Recorder:
    """In-memory span tree with host-speed-normalised durations.

    ``op()`` opens a root span (one request); ``span()`` opens a child of
    the innermost open span of the calling thread. With ``probe=True`` the
    clock ticks just before a span opens and just after it closes, so the
    probes sit in the parent's self time, which :meth:`net` removes.
    Client threads pass ``probe=False``: there the main thread probes
    between rounds, while no client runs.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_op = 0

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, probe: bool = True, root: bool = False):
        if probe:
            self.clock.tick()
        stack = self._stack()
        with self._lock:
            if root:
                op = self._next_op
                self._next_op += 1
            else:
                op = stack[-1]["op"]
            rec = {"id": len(self.spans), "parent": None if root else stack[-1]["id"],
                   "op": op, "name": name, "start": 0.0, "end": 0.0}
            self.spans.append(rec)
        stack.append(rec)
        rec["start"] = now()
        try:
            yield rec
        finally:
            rec["end"] = now()
            stack.pop()
            if probe:
                self.clock.tick()

    def op(self, name: str, probe: bool = True):
        """A root span: one request, with its own ``op`` id."""
        return self.span(name, probe=probe, root=True)

    # -- durations ---------------------------------------------------------

    def net(self, s: dict) -> float:
        """Raw seconds of the span with the probes inside it removed."""
        return (s["end"] - s["start"]) - self.clock.probe_time_within(s["start"], s["end"])

    def durations(self) -> dict[int, dict]:
        """Per span id: ``raw`` / ``norm`` total and ``self_raw`` / ``self_norm``.

        A span's normalised time is the sum of its children's plus its own
        self time scaled by the probes around it, so a long op is scaled
        piecewise by the probes between its parts, not by two far-apart
        probes at its ends.
        """
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: dict[int, dict] = {}
        for s in reversed(self.spans):          # children have larger ids
            kids = children.get(s["id"], [])
            raw = self.net(s)
            self_raw = max(raw - sum(out[k["id"]]["raw"] for k in kids), 0.0)
            self_norm = self_raw * self.clock.scale(s["start"], s["end"])
            out[s["id"]] = {
                "raw": raw, "self_raw": self_raw, "self_norm": self_norm,
                "norm": self_norm + sum(out[k["id"]]["norm"] for k in kids)}
        return out
