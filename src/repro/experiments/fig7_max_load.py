"""Fig. 7 — distribution of maximum host load per capacity group.

The paper finds CPU maxima pinned at capacity (>80%/70% of low/middle
capacity machines hit their cap), memory maxima around ~80% of
capacity (OS overhead), assigned memory near ~90%, and a page-cache
distribution with its own spread.
"""

from __future__ import annotations

from ..hostload.maxload import max_load_by_capacity
from .base import ExperimentResult, ResultTable
from .datasets import simulation_dataset

__all__ = ["run", "ATTRIBUTES"]

ATTRIBUTES = ("cpu", "mem", "mem_assigned", "page_cache")


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    series = simulation_dataset(scale, seed).series
    rows = []
    metrics: dict[str, object] = {}
    for attribute in ATTRIBUTES:
        groups = max_load_by_capacity(series, attribute)
        for cap, dist in groups.items():
            rows.append(
                (
                    attribute,
                    cap,
                    dist.num_machines,
                    round(dist.mean_relative(), 3),
                    round(dist.fraction_at_capacity(tolerance=0.05), 3),
                )
            )
    cpu_groups = max_load_by_capacity(series, "cpu")
    caps = sorted(cpu_groups)
    if caps:
        low = cpu_groups[caps[0]]
        metrics["cpu_lowcap_frac_at_capacity"] = round(
            low.fraction_at_capacity(tolerance=0.05), 3
        )
    mem_groups = max_load_by_capacity(series, "mem")
    mem_rel = [d.mean_relative() for d in mem_groups.values() if d.num_machines]
    metrics["mem_mean_relative_max"] = round(
        sum(mem_rel) / len(mem_rel), 3
    ) if mem_rel else 0.0
    asg_groups = max_load_by_capacity(series, "mem_assigned")
    asg_rel = [d.mean_relative() for d in asg_groups.values() if d.num_machines]
    metrics["mem_assigned_mean_relative_max"] = round(
        sum(asg_rel) / len(asg_rel), 3
    ) if asg_rel else 0.0
    metrics["assigned_exceeds_consumed"] = (
        metrics["mem_assigned_mean_relative_max"]
        > metrics["mem_mean_relative_max"]
    )

    return ExperimentResult(
        experiment_id="fig7",
        title="Maximum host load per capacity group",
        tables=(
            ResultTable.build(
                "Fig. 7: per (attribute, capacity) max-load statistics",
                (
                    "attribute",
                    "capacity",
                    "machines",
                    "mean_max/capacity",
                    "frac_at_capacity",
                ),
                rows,
            ),
        ),
        metrics=metrics,
        paper_reference={
            "cpu": ">80%/70% of low/middle-CPU machines max out at capacity",
            "mem": "max consumed memory ~80% of capacity (system overhead)",
            "mem_assigned": "~90% of capacity with high probability",
        },
        notes=(
            "CPU maxima sit at/near capacity while consumed memory maxima "
            "stay below assigned memory, matching the figure's ordering."
        ),
    )
