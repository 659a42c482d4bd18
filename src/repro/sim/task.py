"""Per-task-instance state for the simulator.

A :class:`SimTask` is one submission lineage of a task: resubmissions
after failure or eviction reuse the same object, bumping its
``incarnation`` so stale completion events can be recognized and
dropped (lazy cancellation). The scalar golden-reference engine
materializes one ``SimTask`` per request; the C kernel instead reads
every per-task quantity from :class:`TaskColumns` — one structure-of-
arrays block built once per run — and refers to tasks by row index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces.schema import TaskState, priority_band_array

__all__ = ["SimTask", "TaskColumns"]


@dataclass(frozen=True)
class TaskColumns:
    """Immutable structure-of-arrays view of a request stream.

    One row per submission lineage, in arrival order. The C kernel
    keeps its *mutable* per-task state (state, machine, incarnation,
    resubmit count, fate, start time) in per-row arrays of its own;
    these columns carry everything that never changes after
    :meth:`from_requests`, and the final event log is assembled by
    fancy-indexing them with the recorded row indices instead of
    reading attributes task by task.
    """

    submit_time: np.ndarray
    job_id: np.ndarray
    task_index: np.ndarray
    priority: np.ndarray
    band: np.ndarray
    cpu_request: np.ndarray
    mem_request: np.ndarray
    duration: np.ndarray
    cpu_eff: np.ndarray
    mem_eff: np.ndarray
    page_cache: np.ndarray
    fate: np.ndarray

    @classmethod
    def from_requests(cls, requests) -> "TaskColumns":
        """Build the column block from a ``TaskRequests`` stream."""
        return cls(
            submit_time=np.asarray(requests.submit_time, dtype=np.float64),
            job_id=np.asarray(requests.job_id, dtype=np.int64),
            task_index=np.asarray(requests.task_index, dtype=np.int32),
            priority=np.asarray(requests.priority, dtype=np.int16),
            band=priority_band_array(requests.priority),
            cpu_request=np.asarray(requests.cpu_request, dtype=np.float64),
            mem_request=np.asarray(requests.mem_request, dtype=np.float64),
            duration=np.asarray(requests.duration, dtype=np.float64),
            cpu_eff=np.asarray(
                requests.cpu_request * requests.cpu_utilization,
                dtype=np.float64,
            ),
            mem_eff=np.asarray(
                requests.mem_request * requests.mem_utilization,
                dtype=np.float64,
            ),
            page_cache=np.asarray(requests.page_cache, dtype=np.float64),
            fate=np.asarray(requests.fate, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.submit_time)


class SimTask:
    """Mutable runtime state of one task lineage."""

    __slots__ = (
        "job_id",
        "task_index",
        "priority",
        "band",
        "cpu_request",
        "mem_request",
        "duration",
        "cpu_eff",
        "mem_eff",
        "page_cache",
        "fate",
        "state",
        "machine",
        "incarnation",
        "resubmits",
        "submit_time",
        "start_time",
        "constraints",
        "allowed_mask",
    )

    def __init__(
        self,
        job_id: int,
        task_index: int,
        priority: int,
        band: int,
        cpu_request: float,
        mem_request: float,
        duration: float,
        cpu_eff: float,
        mem_eff: float,
        page_cache: float,
        fate: int,
        submit_time: float,
    ) -> None:
        self.job_id = job_id
        self.task_index = task_index
        self.priority = priority
        self.band = band
        self.cpu_request = cpu_request
        self.mem_request = mem_request
        self.duration = duration
        # Effective (actual) usage while running, already scaled by the
        # task's utilization factor; in largest-machine units.
        self.cpu_eff = cpu_eff
        self.mem_eff = mem_eff
        self.page_cache = page_cache
        self.fate = fate
        self.state = TaskState.PENDING
        self.machine = -1
        self.incarnation = 0
        self.resubmits = 0
        self.submit_time = submit_time
        self.start_time = -1.0
        # Placement constraints (repro.sim.constraints): the tuple of
        # Constraint objects and the precomputed machine mask, or None
        # when the task is unconstrained.
        self.constraints: tuple = ()
        self.allowed_mask = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimTask(job={self.job_id}, idx={self.task_index}, "
            f"prio={self.priority}, state={self.state.name})"
        )
