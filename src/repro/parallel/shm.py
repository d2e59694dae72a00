"""Zero-copy shared-memory transport for the 3D fan-out's replica blocks.

Shipping every touched block array to the worker and back on every
fanned-out level would push O(replica bytes) through the pipe each way.
This module ships *descriptors* instead: the parent lays each grid's
blocks out in ``multiprocessing.shared_memory`` segments once, and
``export`` ships only a table of ``(segment name, offset, shape)`` triples.
Workers attach the named segments and reconstruct zero-copy NumPy views
(:func:`attach_views`), mutate the blocks in place, and return the same
tiny descriptor; the parent copies the mutated segments back into its
replica store. A block keeps its place in shared memory across levels;
its values are copied in at every export — a block exported again is an
ancestor block the z-reduction has summed into in between.

Cleanup is parent-owned: segments are created with the ``repro_shm_``
prefix and unlinked in :meth:`ShmTransport.close`, which the 3D executor
calls in a ``finally`` even when a worker crashes mid-level. Workers never
close or unlink — their attachments die with the pool processes — and an
attach never touches the ``resource_tracker`` (see :func:`_attach`), so
only the parent's create-registration exists and ``unlink`` consumes it
exactly once. Any failure to create or map a segment makes ``export``
return ``None`` (after unlinking what it owns); the 3D executor then
finishes the run on the inline serial levels and records a
:class:`repro.parallel.ParallelFallback`.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

try:
    from multiprocessing import resource_tracker, shared_memory
    _HAVE_SHM = True
except ImportError:  # pragma: no cover - stdlib build without _posixshmem
    resource_tracker = shared_memory = None
    _HAVE_SHM = False

__all__ = [
    "SHM_PREFIX",
    "attach_views",
    "ShmTransport",
    "ShmViewHandle",
    "shm_available",
]

#: Every segment name starts with this, so tests (and operators) can assert
#: no ``/dev/shm/repro_shm_*`` files survive a run.
SHM_PREFIX = "repro_shm_"

_NAME_COUNTER = itertools.count()


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` exists on this platform."""
    return _HAVE_SHM


@dataclass(frozen=True)
class ShmViewHandle:
    """The wire payload: which grid, and where each block lives.

    ``entries`` maps block key ``(i, j)`` to ``(segment name, byte offset,
    shape)``; all blocks are float64. Pickling this is O(#blocks), not
    O(block bytes) — that is the entire point.
    """

    g: int
    entries: dict


# Worker-side attachment cache: one mapping per segment name per process,
# reused across levels. Never closed here — the mappings die with the
# worker process; the parent (sole owner) unlinks the backing segments.
_ATTACH_CACHE: dict = {}

_ATTACH_LOCK = threading.Lock()


def _attach(name: str):
    """Attach to a named segment without a resource-tracker registration.

    On Python <= 3.12 ``SharedMemory(name=...)`` registers attachments
    with the (process-tree-wide) resource tracker just like creations, so
    a worker's attach followed by the parent's ``unlink`` would unregister
    the name twice and spray tracker errors at exit. Only the creating
    parent should hold the registration — ``unlink`` consumes it — so the
    register call is suppressed for the duration of the attach.
    """
    with _ATTACH_LOCK:
        seg = _ATTACH_CACHE.get(name)
        if seg is None:
            orig = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                seg = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig
            _ATTACH_CACHE[name] = seg
        return seg


def attach_views(handle: ShmViewHandle) -> dict:
    """Worker-side block mapping ``(i, j) -> ndarray`` over the attached
    segments: zero-copy, so binding a kernel program to it and mutating
    the blocks in place writes the shared segments directly."""
    return {key: np.ndarray(shape, dtype=np.float64,
                            buffer=_attach(name).buf, offset=off)
            for key, (name, off, shape) in handle.entries.items()}


class _GridState:
    """Parent-side layout of one grid's blocks in shared memory."""

    __slots__ = ("segments", "entries", "views")

    def __init__(self):
        self.segments = []   # SharedMemory objects this transport owns
        self.entries = {}    # key -> (name, offset, shape)
        self.views = {}      # key -> parent ndarray view into a segment


class ShmTransport:
    """Parent-side segment owner and layout table."""

    def __init__(self):
        self._grids: dict[int, _GridState] = {}
        self._names: list[str] = []
        #: Set once a segment could not be created or mapped; every later
        #: ``export`` returns ``None``.
        self.broken = False

    def export(self, g: int, arrays: dict) -> ShmViewHandle | None:
        """Sync grid ``g``'s blocks into shared memory; return a handle.

        ``arrays`` maps block key to the *live* replica array (no copies;
        iteration order must be deterministic — the layout replays it).
        Unknown keys get appended to a fresh segment, known ones keep
        their place; every block's current values are copied in. Returns
        ``None`` if shared memory fails, permanently downgrading this
        transport.
        """
        if self.broken:
            return None
        try:
            st = self._grids.setdefault(g, _GridState())
            new = [(k, a) for k, a in arrays.items() if k not in st.entries]
            if new:
                total = sum(int(a.size) * 8 for _k, a in new)
                seg = self._create(max(total, 1))
                st.segments.append(seg)
                off = 0
                for k, a in new:
                    st.entries[k] = (seg.name, off, a.shape)
                    st.views[k] = np.ndarray(a.shape, dtype=np.float64,
                                             buffer=seg.buf, offset=off)
                    off += int(a.size) * 8
            for k, a in arrays.items():
                st.views[k][:] = a
            return ShmViewHandle(g=g,
                                 entries={k: st.entries[k] for k in arrays})
        except (OSError, ValueError):
            self.broken = True
            self.close()
            return None

    def views_for(self, handle: ShmViewHandle) -> dict:
        """Parent-side views of the handle's blocks (for copy-back)."""
        views = self._grids[handle.g].views
        return {k: views[k] for k in handle.entries}

    def close(self) -> None:
        """Unlink every owned segment (idempotent; crash-safe ``finally``)."""
        for st in self._grids.values():
            st.views.clear()
            for seg in st.segments:
                try:
                    seg.close()
                except BufferError:  # a view is still alive; unlink anyway
                    pass
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
        self._grids.clear()
        # A same-process attach (tests drive attach_views directly) would
        # pin the unlinked segments' memory: purge those cached mappings.
        for name in self._names:
            seg = _ATTACH_CACHE.pop(name, None)
            if seg is not None:
                try:
                    seg.close()
                except BufferError:
                    pass
        self._names.clear()

    def _create(self, nbytes: int):
        while True:
            name = f"{SHM_PREFIX}{os.getpid()}_{next(_NAME_COUNTER)}"
            try:
                seg = shared_memory.SharedMemory(create=True, size=nbytes,
                                                 name=name)
            except FileExistsError:  # stale leftover from a killed run
                continue
            self._names.append(name)
            return seg
