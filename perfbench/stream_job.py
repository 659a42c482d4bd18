"""The ``stream_spill`` job: spill a task stream to shards, then fold it.

Runs in its own process (see ``launch.py``). It spills a month-long
two-column task stream (``submit_time``, ``priority``) with
:func:`repro.synth.sharded.shard_task_requests`, then folds the shards
with :func:`repro.core.mapreduce.map_reduce` over two spawned workers,
using the kernel below. The facts it writes are what the benchmark
checks: the folded row count, the busiest hour's task count and the
priority ECDF's sample count.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from repro.core import kernels, mapreduce
from repro.core.timing import Timings
from repro.synth import google_model, sharded

__all__ = ["HORIZON_S", "HourlyLoad", "hourly_kernel", "main", "reference"]

#: One month of arrivals, as in the paper's trace.
HORIZON_S = 30 * 86400.0
_HOURS = int(HORIZON_S // 3600)
COLUMNS = ("submit_time", "priority")


class HourlyLoad:
    """Mergeable fold state: tasks per hour plus a priority ECDF.

    ``kernel_s`` and ``pids`` are bookkeeping for the benchmark: seconds
    spent inside the kernel, and the processes that ran it.
    """

    def __init__(self, counts: np.ndarray, priorities, kernel_s: float) -> None:
        self.counts = counts
        self.priorities = priorities
        self.kernel_s = kernel_s
        self.pids = {os.getpid()}

    def merge(self, other: "HourlyLoad") -> "HourlyLoad":
        self.counts = self.counts + other.counts
        self.priorities.merge(other.priorities)
        self.kernel_s += other.kernel_s
        self.pids |= other.pids
        return self


def hourly_kernel(shard) -> HourlyLoad:
    """Per-shard kernel; module-level so spawned workers can unpickle it."""
    start = time.perf_counter()
    hours = (np.asarray(shard["submit_time"]) // 3600).astype(np.int64)
    counts = np.bincount(np.clip(hours, 0, _HOURS - 1), minlength=_HOURS)
    priorities = kernels.ECDFAccumulator()
    priorities.add(np.asarray(shard["priority"], dtype=np.float64))
    return HourlyLoad(counts, priorities, time.perf_counter() - start)


def main(dest: str, facts: str, seed: int, tasks_per_hour: float,
         shard_rows: int, jobs: int) -> int:
    # Called through their modules, so a traced pass sees the wrappers.
    table = sharded.shard_task_requests(
        dest,
        HORIZON_S,
        seed,
        tasks_per_hour=tasks_per_hour,
        shard_rows=shard_rows,
        columns=COLUMNS,
    )
    timings = Timings()
    folded = mapreduce.map_reduce(table, hourly_kernel, jobs=jobs, timings=timings)
    with open(facts, "w") as fh:
        json.dump(
            {
                "num_rows": int(table.num_rows),
                "num_shards": int(table.num_shards),
                "rows": int(folded.counts.sum()),
                "ecdf_rows": int(folded.priorities.n_values),
                "busiest_hour": int(folded.counts.max()),
                "kernel_s": folded.kernel_s,
                "blocks": len(folded.pids),
                "retries": int(timings.counters.get("mapreduce_retries", 0)),
            },
            fh,
        )
    return 0


def reference(seed: int, tasks_per_hour: float) -> dict[str, int]:
    """Row count and busiest hour straight from the generator.

    Shares no code with the spill or the fold, so it checks both.
    """
    counts = np.zeros(_HOURS, dtype=np.int64)
    for chunk in google_model.iter_task_requests(HORIZON_S, seed, tasks_per_hour=tasks_per_hour):
        hours = (chunk.submit_time // 3600).astype(np.int64)
        counts += np.bincount(np.clip(hours, 0, _HOURS - 1), minlength=_HOURS)
    return {"rows": int(counts.sum()), "busiest_hour": int(counts.max())}
