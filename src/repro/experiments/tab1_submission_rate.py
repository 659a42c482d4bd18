"""Table I — jobs submitted per hour: max / avg / min and fairness.

Paper row targets: Google 1421/552/36 at fairness 0.94; Grids average
8.4-126 jobs/hour with fairness 0.04-0.51 and minimum 0 (diurnal lulls).
"""

from __future__ import annotations

import numpy as np

from ..core.fairness import submission_rate_stats
from .base import ExperimentResult, ResultTable
from .datasets import grid_system_names, workload_dataset

__all__ = ["run", "PAPER_TABLE1"]

#: The paper's Table I, for side-by-side comparison.
PAPER_TABLE1: dict[str, tuple[float, float, float, float]] = {
    # system: (max, avg, min, fairness)
    "Google": (1421, 552, 36, 0.94),
    "AuverGrid": (818, 45, 0, 0.35),
    "NorduGrid": (2175, 27, 0, 0.11),
    "SHARCNET": (22334, 126, 0, 0.04),
    "ANL": (132, 10, 0, 0.51),
    "RICC": (4919, 121, 0, 0.14),
    "METACENTRUM": (2315, 24, 0, 0.04),
    "LLNL-Atlas": (240, 8.4, 0, 0.23),
}


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    data = workload_dataset(scale, seed)
    systems = {"Google": data.google_jobs}
    systems.update({n: data.grid_jobs[n] for n in grid_system_names()})

    rows = []
    measured: dict[str, tuple[float, float, float, float]] = {}
    for name, jobs in systems.items():
        stats = submission_rate_stats(
            np.asarray(jobs["submit_time"]), data.horizon
        )
        measured[name] = (
            stats.max_per_hour,
            stats.avg_per_hour,
            stats.min_per_hour,
            stats.fairness,
        )
        paper = PAPER_TABLE1.get(name)
        rows.append(
            (
                name,
                stats.max_per_hour,
                round(stats.avg_per_hour, 1),
                stats.min_per_hour,
                round(stats.fairness, 2),
                "/".join(str(v) for v in paper) if paper else "-",
            )
        )

    google = measured["Google"]
    grid_avg = [measured[n][1] for n in systems if n != "Google"]
    grid_fair = [measured[n][3] for n in systems if n != "Google"]
    return ExperimentResult(
        experiment_id="tab1",
        title="Jobs submitted per hour (Table I)",
        tables=(
            ResultTable.build(
                "Table I: submission-rate statistics",
                ("system", "max/h", "avg/h", "min/h", "fairness", "paper(max/avg/min/fair)"),
                rows,
            ),
        ),
        metrics={
            "google_avg_per_hour": round(google[1], 1),
            "google_fairness": round(google[3], 3),
            "google_rate_highest": google[1] > max(grid_avg),
            "google_fairness_highest": google[3] > max(grid_fair),
            "grid_fairness_range": (
                round(min(grid_fair), 3),
                round(max(grid_fair), 3),
            ),
        },
        paper_reference={
            "google": "552 avg/hour, fairness 0.94",
            "grids": "8.4-126 avg/hour, fairness 0.04-0.51",
        },
        notes=(
            "Google submits at a much higher and much more stable rate than "
            "any Grid system, matching Table I's ordering."
        ),
    )
