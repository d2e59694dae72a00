"""On-disk tuning cache, keyed by sparsity-pattern fingerprint.

A tuning session builds one plan per executable candidate; its *result*
is a pure function of (sparsity pattern, P, symbolic knobs, plan-relevant
options, search space) — the same identity insight the factorization
service's :class:`~repro.service.cache.PlanCache` is built on, so the key
reuses :func:`repro.service.cache.pattern_fingerprint` verbatim. The cache
is a human-readable JSON file, safe to commit next to benchmark outputs,
and is what lets the service layer auto-adopt a tuned grid the next time
the same pattern arrives (see ``FactorizationService(tune_cache=...)``).

Entries are stored in the order they were written, latest last, so any
reader — a later process included — finds the most recent result for a
pattern. Writes are atomic (temp file + rename) so a crashed tuning run
never truncates previous results.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import scipy.sparse as sp

from repro.service.cache import pattern_fingerprint
from repro.tune.search import TuneResult

__all__ = ["TuneCache", "tune_key"]

_FORMAT_VERSION = 2


def tune_key(A: sp.spmatrix, P: int, *, leaf_size: int = 64,
             options=None, max_blocks: tuple = (None,),
             c_values: tuple | None = None,
             blockings: tuple = ("uniform",)) -> str:
    """The cache key of one tuning result: pattern fingerprint x ranks x
    the knobs that change what a tuning session would measure, its search
    space included."""
    from repro.plan.replay import plan_options_key
    opts_part = "default" if options is None \
        else ",".join(str(v) for v in plan_options_key(options))
    cs = "all" if c_values is None else ",".join(map(str, c_values))
    space = f"mb{','.join(map(str, max_blocks))}:c{cs}:{','.join(blockings)}"
    return f"{pattern_fingerprint(A)}:P{P}:leaf{leaf_size}:{opts_part}:{space}"


class TuneCache:
    """JSON-file map from :func:`tune_key` to :class:`TuneResult`.

    The file is loaded lazily and re-read only when its mtime changes,
    so long-lived services see results written by concurrent tuning
    processes without re-parsing on every lookup.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._data: dict[str, dict] | None = None
        self._mtime: float | None = None

    # -- storage -----------------------------------------------------------

    def _load(self) -> dict[str, dict]:
        if not self.path.exists():
            self._data, self._mtime = {}, None
            return self._data
        mtime = self.path.stat().st_mtime
        if self._data is None or mtime != self._mtime:
            raw = json.loads(self.path.read_text())
            if raw.get("version") != _FORMAT_VERSION:
                raise ValueError(
                    f"tuning cache {self.path} has version "
                    f"{raw.get('version')!r}, expected {_FORMAT_VERSION}")
            self._data = raw.get("results", {})
            self._mtime = mtime
        return self._data

    def _save(self) -> None:
        # Insertion order is the recency order: no sort_keys.
        payload = json.dumps({"version": _FORMAT_VERSION,
                              "results": self._data}, indent=1)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                   prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._mtime = self.path.stat().st_mtime

    # -- client API --------------------------------------------------------

    def get(self, A: sp.spmatrix, P: int, **key) -> TuneResult | None:
        """The cached :class:`TuneResult` for this configuration, if any
        (``key``: :func:`tune_key`'s keyword arguments)."""
        entry = self._load().get(tune_key(A, P, **key))
        return TuneResult.from_dict(entry) if entry is not None else None

    def get_by_fingerprint(self, fingerprint: str) -> TuneResult | None:
        """Most recently stored result whose key starts with
        ``fingerprint`` — the service's warm-request lookup, which knows
        the pattern but not which (P, knob) session tuned it."""
        best = None
        for key, entry in self._load().items():
            if key.startswith(fingerprint + ":"):
                best = entry
        return TuneResult.from_dict(best) if best is not None else None

    def put(self, A: sp.spmatrix, result: TuneResult, **key) -> None:
        """Store ``result`` as the most recent entry (``key``:
        :func:`tune_key`'s keyword arguments)."""
        data = self._load()
        k = tune_key(A, result.P, **key)
        data.pop(k, None)
        data[k] = result.to_dict()
        self._save()

    def __len__(self) -> int:
        return len(self._load())
