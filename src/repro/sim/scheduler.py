"""Priority scheduler: 12 levels, FCFS within a level, preemption.

Implements the paper's Section II model: higher-priority tasks are
processed first and may preempt lower-priority ones; ties are broken
first-come-first-serve. Placement picks the "best" machine under a
pluggable policy — the default ``balance`` spreads load to minimize
peak demand, matching the paper's description of Google's scheduler;
``best_fit``, ``first_fit`` and ``random`` exist for the ablation
benchmarks.
"""

from __future__ import annotations

import heapq

import numpy as np

from .machine import FleetState
from .task import SimTask

__all__ = ["PendingQueue", "choose_machine", "PLACEMENT_POLICIES"]

PLACEMENT_POLICIES = ("balance", "best_fit", "first_fit", "random")


class PendingQueue:
    """Pending tasks ordered by (priority desc, arrival asc)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, SimTask]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, task: SimTask) -> None:
        heapq.heappush(self._heap, (-task.priority, self._seq, task))
        self._seq += 1

    def pop(self) -> SimTask:
        return heapq.heappop(self._heap)[2]

    def peek(self) -> SimTask:
        return self._heap[0][2]


def choose_machine(
    fleet: FleetState,
    task: SimTask,
    policy: str,
    rng: np.random.Generator,
) -> int:
    """Pick a machine for the task, or -1 when nothing fits.

    Tasks carrying placement constraints (``task.allowed_mask``) are
    only offered machines inside their mask.

    Policies
    --------
    balance:
        The paper's model — among fitting machines choose the one with
        the most free CPU relative to capacity, balancing demand across
        the fleet and minimizing peak load.
    best_fit:
        Tightest fit: least free CPU that still fits (bin-packing).
    first_fit:
        Lowest machine index that fits.
    random:
        Uniform among fitting machines.
    """
    mask = fleet.candidates(task)
    if task.allowed_mask is not None:
        mask &= task.allowed_mask
    if not mask.any():
        return -1
    idx = np.flatnonzero(mask)
    if policy == "balance":
        score = fleet.free_cpu[idx] / fleet.cpu_capacity[idx]
        return int(idx[np.argmax(score)])
    if policy == "best_fit":
        return int(idx[np.argmin(fleet.free_cpu[idx])])
    if policy == "first_fit":
        return int(idx[0])
    if policy == "random":
        return int(rng.choice(idx))
    raise ValueError(
        f"unknown placement policy {policy!r}; choose from {PLACEMENT_POLICIES}"
    )
