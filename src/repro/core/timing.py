"""Wall/CPU stage timing and counters for the experiment pipeline.

Analysis outputs must stay a pure function of ``(inputs, seed)`` —
REP501 bans wall-clock reads in result-producing code. Timing the
pipeline is the one legitimate exception: durations are observability
metadata, never part of a rendered result, so the clock reads below are
explicitly suppressed. Everything recorded here flows to stderr
footers and ``--json`` timing reports, not to experiment output.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from .report import render_table

__all__ = ["RECOVERY_COUNTERS", "StageStats", "Timings", "render_timings"]

#: Counters the supervised runner and disk cache emit while recovering
#: from faults (retries, worker crashes, timeouts, requeued attempts,
#: quarantined cache entries, ...). They are rendered on their own
#: ``recovery:`` footer line so a degraded-but-successful run is
#: visible at a glance instead of buried among cache statistics.
RECOVERY_COUNTERS = (
    "retries",
    "worker_crashes",
    "experiment_timeouts",
    "requeued",
    "cancelled",
    "resumed",
    "faults_injected",
    "cache_quarantined",
    "cache_errors",
    # Supervised map-reduce over sharded tables.
    "mapreduce_retries",
    "mapreduce_respawns",
    "mapreduce_crashes",
    "mapreduce_block_timeouts",
    "mapreduce_stragglers",
    "mapreduce_inline",
)


@dataclass
class StageStats:
    """Accumulated wall/CPU time of one named pipeline stage."""

    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def add(self, wall_s: float, cpu_s: float) -> None:
        self.calls += 1
        self.wall_s += wall_s
        self.cpu_s += cpu_s

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
        }


class Timings:
    """Per-stage wall/CPU durations plus named event counters.

    Stages nest freely (``with timings.stage("total"): ...``) and the
    same stage name accumulates across entries. Counters record discrete
    events (cache hits, dataset builds). Instances merge, so per-worker
    measurements can be folded into one run-level report.
    """

    def __init__(self) -> None:
        self.stages: dict[str, StageStats] = {}
        self.counters: dict[str, int] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block, accumulating into the named stage."""
        wall0 = time.perf_counter()  # reprolint: disable=REP501
        cpu0 = time.process_time()
        try:
            yield
        finally:
            wall1 = time.perf_counter()  # reprolint: disable=REP501
            cpu1 = time.process_time()
            self.record(name, wall1 - wall0, cpu1 - cpu0)

    def record(self, name: str, wall_s: float, cpu_s: float) -> None:
        """Add one timed interval to the named stage."""
        self.stages.setdefault(name, StageStats()).add(wall_s, cpu_s)

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named event counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def merge(self, other: "Timings", *, counters: bool = True) -> None:
        """Fold another instance's stages (and counters) into this one."""
        for name, stats in other.stages.items():
            mine = self.stages.setdefault(name, StageStats())
            mine.calls += stats.calls
            mine.wall_s += stats.wall_s
            mine.cpu_s += stats.cpu_s
        if counters:
            for name, n in other.counters.items():
                self.count(name, n)

    def merge_counts(self, counters: dict[str, int]) -> None:
        """Fold a plain counter mapping into this instance."""
        for name, n in counters.items():
            self.count(name, n)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view: stage timings plus counters."""
        return {
            "stages": {
                name: stats.as_dict() for name, stats in self.stages.items()
            },
            "counters": dict(sorted(self.counters.items())),
        }


def render_timings(timings: Timings, title: str = "timing:") -> str:
    """Human-readable footer table of stages and counters."""
    rows = [
        (name, stats.calls, f"{stats.wall_s:.3f}", f"{stats.cpu_s:.3f}")
        for name, stats in timings.stages.items()
    ]
    parts = [render_table(("stage", "calls", "wall s", "cpu s"), rows, title=title)]
    plain = {
        name: n
        for name, n in timings.counters.items()
        if name not in RECOVERY_COUNTERS
    }
    if plain:
        counts = ", ".join(f"{name}={n}" for name, n in sorted(plain.items()))
        parts.append(f"counters: {counts}")
    recovery = {
        name: timings.counters[name]
        for name in RECOVERY_COUNTERS
        if timings.counters.get(name)
    }
    if recovery:
        counts = ", ".join(f"{name}={n}" for name, n in recovery.items())
        parts.append(f"recovery: {counts}")
    return "\n".join(parts)
