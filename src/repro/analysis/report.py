"""Plain-text table rendering for the experiment drivers.

``python -m repro report`` and the claim tests (``tests/claims``, with
``-s``) print paper-style tables; this module keeps the formatting in one place.
"""

from __future__ import annotations

__all__ = ["format_table", "format_si", "format_parallel_stats",
           "format_resilience_stats"]


def format_si(x: float, digits: int = 3) -> str:
    """Engineering-notation formatting: 1.23e+04 -> '12.3K'."""
    if x == 0:
        return "0"
    units = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K")]
    ax = abs(x)
    for scale, suffix in units:
        if ax >= scale:
            return f"{x / scale:.{digits}g}{suffix}"
    return f"{x:.{digits}g}"


def format_table(headers: list[str], rows: list[list], title: str = "",
                 floatfmt: str = ".3g") -> str:
    """Render an aligned ASCII table.

    Cells may be any type; floats are formatted with ``floatfmt``.
    """
    def render(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:{floatfmt}}"
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def format_parallel_stats(result, title: str = "parallel execution") -> str:
    """Per-level thread utilization of a fanned-out 3D factorization.

    ``result`` is a ``Factor3DResult``; its ``parallel_stats`` holds one
    :class:`repro.parallel.LevelStats` per level that actually fanned out
    (levels with a single runnable grid stay serial and do not appear),
    or a :class:`repro.parallel.ParallelFallback` when workers were
    requested but the run stayed serial — that reason is printed here so
    the decision is never silent. Utilization is summed task seconds over
    ``workers x wall``.
    """
    stats = getattr(result, "parallel_stats", None) or []
    levels = [st for st in stats if hasattr(st, "utilization")]
    fallbacks = [st for st in stats if hasattr(st, "reason")]
    out: list[str] = []
    if levels:
        rows = [[st.level, st.n_tasks, st.n_workers,
                 st.wall_seconds * 1e3, st.task_seconds * 1e3,
                 st.utilization]
                for st in levels]
        out.append(format_table(
            ["level", "grids", "workers", "wall [ms]", "task [ms]", "util"],
            rows, title=title))
    else:
        out.append(title)
    for fb in fallbacks:
        out.append(f"serial fallback ({fb.requested_workers} workers "
                   f"requested): {fb.reason}")
    if not levels and not fallbacks:
        out.append("(serial run: no levels fanned out)")
    return "\n".join(out)


def format_resilience_stats(stats, title: str = "resilience") -> str:
    """Overhead attribution of a resilient factorization run.

    ``stats`` is a :class:`repro.resilience.ResilienceStats` (found on
    ``Factor3DResult.resilience``).
    Times are aggregate rank-seconds, so the overhead percentage compares
    like with like: total fault-tolerance overhead (lost work + recovery
    replay + checkpoint/recovery I/O + downtime) over total booked compute.
    """
    rows: list[list] = [
        ["recovery policy", stats.policy],
        ["checkpoint interval [tasks]",
         stats.checkpoint_every if stats.checkpoint_every else "off"],
        ["faults planned", int(stats.n_faults)],
        ["faults fired", int(stats.faults_fired)],
        ["faults survived", int(stats.faults_survived)],
        ["grid crashes", int(stats.crashes)],
        ["checkpoints taken", int(stats.checkpoints_taken)],
        ["checkpoint volume [words]", format_si(stats.checkpoint_words)],
        ["checkpoint I/O [s]", float(stats.checkpoint_io_seconds)],
        ["lost work [s]", float(stats.lost_work_seconds)],
        ["recovery compute [s]", float(stats.recovery_compute_seconds)],
        ["recovery volume [words]", format_si(stats.recovery_words)],
        ["recovery I/O [s]", float(stats.recovery_io_seconds)],
        ["downtime [s]", float(stats.downtime_seconds)],
        ["total overhead [s]", float(stats.overhead_seconds)],
        ["overhead [% of compute]", float(stats.overhead_pct)],
    ]
    out = [format_table(["counter", "value"], rows, title=title)]
    for note in stats.notes:
        out.append(f"note: {note}")
    return "\n".join(out)
