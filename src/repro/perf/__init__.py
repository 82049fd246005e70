"""Lightweight wall-clock phase timers for the verification stack.

One small primitive, :class:`PhaseTimers`, shared by every layer that
wants a measured (not asserted) performance story: the BMC scheduler
times *encode* vs *solve* per run, the solver times *propagate* /
*analyze* / *reduce* / *simplify* / *decide* inside its search loop
(:class:`repro.sat.solver.SolverStats` ``time_*_s`` fields), and the
fuzz farm times its SAT vs simulation halves per round.  Everything is
plain ``time.perf_counter()`` arithmetic — no sampling, no threads —
and is off by default: the engine flips it on under
``BmcOptions.profile`` (CLI ``--profile``), the farm under
``FarmConfig.profile``.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager


def peak_rss_mb() -> float:
    """Lifetime peak resident-set size of this process in MiB.

    ``ru_maxrss`` is kibibytes on Linux but *bytes* on macOS — scale by
    platform or the figure (and everything gated on it, like
    ``mem_quota_mb`` via the :func:`current_rss_mb` fallback) is off by
    1024x off-Linux.  The divisor is computed per call so tests can
    monkeypatch ``sys.platform``.
    """
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / divisor


def current_rss_mb() -> float:
    """Current resident-set size of this process in MiB.

    The per-job memory quota (``BmcOptions.mem_quota_mb``) needs the
    *current* footprint, not the lifetime peak: a pooled service worker
    runs many jobs, and ``ru_maxrss`` — once pushed over a quota by one
    job — would degrade every later job in the same process.  Reads
    ``/proc/self/statm`` where available (Linux); falls back to the
    rusage peak elsewhere, which is conservative but monotone.
    """
    try:
        with open("/proc/self/statm") as f:
            resident_pages = int(f.read().split()[1])
        return resident_pages * resource.getpagesize() / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


class PhaseTimers:
    """Accumulates wall-clock seconds (and call counts) per named phase."""

    __slots__ = ("times", "counts")

    def __init__(self) -> None:
        self.times: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        self.times[phase] = self.times.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + 1

    @contextmanager
    def measure(self, phase: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - t0)

    def total(self) -> float:
        return sum(self.times.values())

    def snapshot(self) -> dict:
        """JSON-ready ``{phase: {"s": seconds, "n": calls}}`` mapping."""
        return {phase: {"s": round(self.times[phase], 6),
                        "n": self.counts[phase]}
                for phase in sorted(self.times)}

    def merge(self, other: "PhaseTimers") -> None:
        for phase, seconds in other.times.items():
            self.times[phase] = self.times.get(phase, 0.0) + seconds
            self.counts[phase] = (self.counts.get(phase, 0)
                                  + other.counts[phase])

    def format(self, indent: str = "") -> str:
        """Human-readable breakdown, widest phase first."""
        if not self.times:
            return f"{indent}(no phases recorded)"
        total = self.total() or 1.0
        lines = []
        for phase, seconds in sorted(self.times.items(),
                                     key=lambda kv: -kv[1]):
            lines.append(f"{indent}{phase:<12s} {seconds:8.3f}s "
                         f"({seconds / total:5.1%}, n={self.counts[phase]})")
        return "\n".join(lines)


def solver_phase_times(solver_stats: dict) -> dict[str, float]:
    """Extract the solver's internal phase times from a stats snapshot.

    Returns ``{phase: seconds}`` for the ``time_<phase>_s`` fields of
    :class:`repro.sat.solver.SolverStats`; empty when profiling was off
    (all zero).
    """
    out = {}
    for key, value in solver_stats.items():
        if key.startswith("time_") and key.endswith("_s") and value:
            out[key[len("time_"):-len("_s")]] = value
    return out
