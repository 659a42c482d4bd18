"""Standard synthetic datasets shared across experiments.

Three scales exist: ``small`` keeps unit/integration tests fast,
``medium`` sizes benchmark runs so vectorized-vs-scalar speedups are
measurable, and ``paper`` approximates the paper's month-long
measurement (scaled from 12,500 to 40 machines; per-machine dynamics
are what Figs. 7-13 measure, so the fleet size only affects
statistical smoothness).

Builders are memoized per (scale, seed) because the simulation dataset
takes tens of seconds at paper scale and every host-load experiment
consumes the same run. On top of the per-process memo sits an optional
content-addressed disk cache (:mod:`repro.core.diskcache`): builders
are pure functions of ``(scale, seed, config)`` — guaranteed by the
REP101/REP501 lint rules — so entries keyed by those inputs plus
:data:`DATASET_CACHE_VERSION` are always safe to reuse across
processes and invocations. Configure it with :func:`configure_cache`
(the CLI does this from ``--cache-dir``) or the ``REPRO_CACHE_DIR``
environment variable; it is off by default for library use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .. import __version__
from ..core.diskcache import MISS, DiskCache, cache_key, fingerprint
from ..core.table import Table
from ..hostload.series import MachineLoadSeries, all_machine_series
from ..sim.cluster import ClusterSimulator, SimConfig, SimResult
from ..synth.google_model import (
    GoogleConfig,
    TaskRequests,
    generate_google_jobs,
    generate_task_requests,
)
from ..synth.grid_model import generate_all_grids
from ..synth.machines import generate_machines
from ..synth.presets import DAY, GRID_PRESETS
from ..traces.convert import grid_jobs_to_job_table

__all__ = [
    "DATASET_CACHE_VERSION",
    "SCALES",
    "ScaleSpec",
    "WorkloadDataset",
    "SimulationDataset",
    "configure_cache",
    "dataset_cache",
    "dataset_stats",
    "default_cache_dir",
    "reset_dataset_stats",
    "workload_dataset",
    "simulation_dataset",
    "sim_google_config",
]

#: Bump when a builder, model default, or cached container changes in a
#: way that alters dataset contents; old disk-cache entries then miss.
DATASET_CACHE_VERSION = 2


@dataclass(frozen=True)
class ScaleSpec:
    """Sizing of one dataset scale."""

    name: str
    workload_horizon: float
    sim_horizon: float
    num_machines: int
    tasks_per_hour_per_machine: float
    busy_window: tuple[float, float] | None
    busy_factor: float
    task_sample_size: int


SCALES: dict[str, ScaleSpec] = {
    "small": ScaleSpec(
        name="small",
        workload_horizon=4 * DAY,
        sim_horizon=2 * DAY,
        num_machines=16,
        tasks_per_hour_per_machine=14.0,
        busy_window=None,
        busy_factor=1.0,
        task_sample_size=40_000,
    ),
    "medium": ScaleSpec(
        name="medium",
        workload_horizon=10 * DAY,
        sim_horizon=6 * DAY,
        num_machines=32,
        tasks_per_hour_per_machine=12.0,
        busy_window=None,
        busy_factor=1.0,
        task_sample_size=100_000,
    ),
    "paper": ScaleSpec(
        name="paper",
        workload_horizon=30 * DAY,
        sim_horizon=30 * DAY,
        num_machines=40,
        tasks_per_hour_per_machine=9.0,
        busy_window=(21 * DAY, 25 * DAY),
        busy_factor=1.4,
        task_sample_size=250_000,
    ),
}


def _scale(name: str) -> ScaleSpec:
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; available: {sorted(SCALES)}"
        ) from None


def sim_google_config(spec: ScaleSpec) -> GoogleConfig:
    """Google model configured for simulation runs at this scale.

    The simulated fleet runs CPUs at a lower utilization fraction so the
    cluster-wide relative CPU load lands near the paper's ~35% while
    memory stays near ~60-70%.
    """
    return GoogleConfig(
        busy_window=spec.busy_window,
        busy_factor=spec.busy_factor,
        cpu_utilization_range=(0.25, 0.7),
    )


@dataclass(frozen=True)
class WorkloadDataset:
    """Per-job tables for every system plus Google task-level samples.

    ``grid_jobs`` is derived from ``grid_jobs_native`` on construction,
    so the disk cache stores only the native tables (its codec skips
    ``init=False`` fields and rebuilds through ``__init__``).
    """

    horizon: float
    google_jobs: Table
    grid_jobs_native: dict[str, Table]  # GWA/SWF schemas
    google_tasks: TaskRequests  # task-level sample (lengths, priorities)
    grid_jobs: dict[str, Table] = field(init=False)  # common schema

    def __post_init__(self) -> None:
        converted = {
            name: grid_jobs_to_job_table(table)
            for name, table in self.grid_jobs_native.items()
        }
        object.__setattr__(self, "grid_jobs", converted)


@dataclass(frozen=True)
class SimulationDataset:
    """One simulated cluster month plus its per-machine series.

    ``series`` slices ``result.machine_usage`` per machine on
    construction, so the disk cache stores those rows only once.
    """

    result: SimResult
    config: GoogleConfig
    series: dict[int, MachineLoadSeries] = field(init=False)

    def __post_init__(self) -> None:
        series = all_machine_series(self.result.machine_usage, self.result.machines)
        object.__setattr__(self, "series", series)


# -- disk cache wiring --------------------------------------------------------

#: (disk cache instance or None, whether configure_cache was called).
_CACHE: DiskCache | None = None
_CACHE_CONFIGURED = False

#: Build/disk-traffic counters, readable via :func:`dataset_stats`.
_STATS = {
    "workload_builds": 0,
    "simulation_builds": 0,
    "disk_hits": 0,
    "disk_misses": 0,
}


def default_cache_dir() -> Path:
    """Default on-disk cache location (XDG-style, overridable by env)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "datasets"


def configure_cache(
    cache_dir: str | Path | None,
    *,
    max_bytes: int | None = 4 * 1024**3,
    max_entries: int | None = 64,
) -> DiskCache | None:
    """Point the dataset builders at an on-disk cache (None disables).

    Also clears the in-process memo so the new cache takes effect for
    subsequent calls.
    """
    global _CACHE, _CACHE_CONFIGURED
    _CACHE_CONFIGURED = True
    _CACHE = (
        None
        if cache_dir is None
        else DiskCache(cache_dir, max_bytes=max_bytes, max_entries=max_entries)
    )
    workload_dataset.cache_clear()
    simulation_dataset.cache_clear()
    return _CACHE


def dataset_cache() -> DiskCache | None:
    """The active disk cache, honouring ``REPRO_CACHE_DIR`` by default."""
    global _CACHE, _CACHE_CONFIGURED
    if not _CACHE_CONFIGURED:
        _CACHE_CONFIGURED = True
        env = os.environ.get("REPRO_CACHE_DIR")
        _CACHE = DiskCache(env) if env else None
    return _CACHE


def dataset_stats() -> dict[str, int]:
    """Build and disk-cache traffic counters for this process."""
    stats = dict(_STATS)
    cache = _CACHE
    if cache is not None:
        for name, value in cache.stats.as_dict().items():
            stats[f"cache_{name}"] = value
    return stats


def reset_dataset_stats() -> None:
    """Zero the counters (tests and fresh CLI runs)."""
    for name in _STATS:
        _STATS[name] = 0
    cache = _CACHE
    if cache is not None:
        cache.stats.__init__()


def _cached_build(kind: str, key_parts: dict[str, object], build):
    """Disk-cache lookup around a pure dataset builder."""
    cache = dataset_cache()
    key = None
    if cache is not None:
        key = cache_key(
            kind=kind,
            version=DATASET_CACHE_VERSION,
            repro=__version__,
            **key_parts,
        )
        obj = cache.get(key)
        if obj is not MISS:
            _STATS["disk_hits"] += 1
            return obj
        _STATS["disk_misses"] += 1
    obj = build()
    _STATS[f"{kind}_builds"] += 1
    if cache is not None and key is not None:
        cache.put(key, obj)
    return obj


@lru_cache(maxsize=4)
def workload_dataset(scale: str = "paper", seed: int = 0) -> WorkloadDataset:
    """Job tables for Google + all eight Grid/HPC systems."""
    spec = _scale(scale)
    config = GoogleConfig(
        busy_window=spec.busy_window, busy_factor=spec.busy_factor
    )
    return _cached_build(
        "workload",
        {
            "scale": fingerprint(spec),
            "seed": seed,
            "config": fingerprint(config),
            "grids": fingerprint(GRID_PRESETS),
        },
        lambda: _build_workload(spec, seed, config),
    )


def _build_workload(
    spec: ScaleSpec, seed: int, config: GoogleConfig
) -> WorkloadDataset:
    horizon = spec.workload_horizon
    # Tie the busy window to the scale so the fairness calibration's
    # variance budget matches what the horizon actually contains.
    google_jobs = generate_google_jobs(horizon, seed=seed, config=config)
    native = generate_all_grids(horizon, seed=seed + 1)
    # Task-level sample: a short dense stream gives i.i.d. draws from
    # the calibrated per-priority task-length model.
    rate = spec.task_sample_size / (2 * DAY / 3600.0)
    tasks = generate_task_requests(
        2 * DAY,
        seed=seed + 2,
        config=GoogleConfig(busy_window=None),
        tasks_per_hour=rate,
    )
    return WorkloadDataset(
        horizon=horizon,
        google_jobs=google_jobs,
        grid_jobs_native=native,
        google_tasks=tasks,
    )


@lru_cache(maxsize=4)
def simulation_dataset(scale: str = "paper", seed: int = 0) -> SimulationDataset:
    """Simulated cluster run at the requested scale (memoized)."""
    spec = _scale(scale)
    config = sim_google_config(spec)
    return _cached_build(
        "simulation",
        {
            "scale": fingerprint(spec),
            "seed": seed,
            "config": fingerprint(config),
            "sim": fingerprint(SimConfig()),
        },
        lambda: _build_simulation(spec, seed, config),
    )


def _build_simulation(
    spec: ScaleSpec, seed: int, config: GoogleConfig
) -> SimulationDataset:
    rng = np.random.default_rng(seed + 10)
    machines = generate_machines(spec.num_machines, rng)
    requests = generate_task_requests(
        spec.sim_horizon,
        seed=seed + 11,
        config=config,
        tasks_per_hour=spec.tasks_per_hour_per_machine * spec.num_machines,
    )
    sim = ClusterSimulator(machines, SimConfig(), seed=seed + 12)
    result = sim.run(requests, spec.sim_horizon)
    return SimulationDataset(result=result, config=config)


def grid_system_names() -> list[str]:
    """Names of the calibrated Grid/HPC systems, Table I order first."""
    order = [
        "AuverGrid",
        "NorduGrid",
        "SHARCNET",
        "ANL",
        "RICC",
        "METACENTRUM",
        "LLNL-Atlas",
        "DAS-2",
    ]
    return [n for n in order if n in GRID_PRESETS]
