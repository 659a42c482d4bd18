"""Supervised experiment execution: timeouts, retries, checkpoint-resume.

The registry's experiments are pure functions of ``(scale, seed)``, so
a harness failure — a worker OOM-killed mid-simulation, a hang, a
corrupted cache entry — never changes *what* the run would produce,
only *whether* it finishes. This module makes the harness survive those
failures instead of amplifying them:

* Every attempt runs in its own forked worker of
  :class:`repro.core.workers.WorkerPool`, with a one-shot result pipe.
  A crash or hang therefore has a blast radius of exactly one attempt:
  there is no shared pool to break, nothing to rebuild, and "requeue
  only unfinished work" is the only possible behaviour. Leaving the
  pool terminates every live worker, even when journaling raises.
* Failures are classified — ``crash`` (worker died), ``timeout``
  (exceeded the per-experiment wall-clock budget and was killed),
  ``cache-corruption`` (a typed corruption error surfaced), or
  ``exception`` (the experiment itself raised). The first three are
  transient and retried with capped exponential backoff; exceptions are
  deterministic under the purity contract, so retrying them would waste
  exactly one identical failure per retry and they fail fast instead.
* Backoff jitter is *seeded*, not sampled from the wall clock: the
  delay is a pure function of ``(seed, experiment_id, attempt)``
  (REP501-clean), so a faulted run's retry schedule is reproducible.
* Completed outcomes are appended to a fsync'd JSONL journal under the
  cache directory. ``repro-run --resume <run-id>`` replays finished
  experiments from the journal and executes only the rest; because the
  journal stores the rendered text verbatim, a resumed run's stdout is
  byte-identical to an uninterrupted one.
* An overall run deadline (and ``--fail-fast``) cancels gracefully:
  live workers are terminated, unstarted work is marked ``cancelled``,
  and everything already finished is kept (and journaled).

Scheduling order never affects output: results are returned in the
caller's id order, and each rendered result depends only on
``(scale, seed)``. Faults, retries and resume change timing and
counters — observability channels — never stdout.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import traceback
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__
from ..core.diskcache import CacheCorruptionError
from ..core.timing import Timings
from ..core.workers import Attempt, WorkerPool
from . import datasets
from .faults import FaultPlan
from .registry import run_experiment

__all__ = [
    "ExperimentOutcome",
    "SupervisorConfig",
    "TRANSIENT_KINDS",
    "journal_path",
    "load_journal",
    "run_id",
    "run_one",
    "run_supervised",
    "warm_datasets",
]

#: Failure classes the supervisor retries (capped by ``retries``).
#: ``exception`` is deterministic under the purity contract and is not.
TRANSIENT_KINDS = frozenset({"crash", "timeout", "cache-corruption"})


@dataclass
class ExperimentOutcome:
    """One experiment's rendered result (or failure) plus its cost."""

    experiment_id: str
    ok: bool
    rendered: str = ""
    error: str = ""
    #: "" on success; one of crash | timeout | exception |
    #: cache-corruption | cancelled on failure.
    error_kind: str = ""
    #: 1-based number of the attempt that produced this outcome.
    attempts: int = 1
    #: True when served from a resume journal instead of executed.
    resumed: bool = False
    timings: Timings = field(default_factory=Timings)

    def as_journal_dict(self) -> dict[str, object]:
        return {
            "id": self.experiment_id,
            "ok": self.ok,
            "rendered": self.rendered,
            "error": self.error,
            "error_kind": self.error_kind,
            "attempts": self.attempts,
        }

    @classmethod
    def from_journal_dict(cls, entry: Mapping[str, object]) -> "ExperimentOutcome":
        return cls(
            experiment_id=str(entry["id"]),
            ok=bool(entry["ok"]),
            rendered=str(entry.get("rendered", "")),
            error=str(entry.get("error", "")),
            error_kind=str(entry.get("error_kind", "")),
            attempts=int(entry.get("attempts", 1)),  # type: ignore[arg-type]
            resumed=True,
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance policy for one supervised run."""

    jobs: int = 1
    #: Per-experiment wall-clock budget; a worker past it is killed and
    #: the attempt classified ``timeout``. ``None`` disables.
    timeout: float | None = None
    #: Extra attempts allowed per experiment for transient failures.
    retries: int = 0
    #: Overall run budget; when exceeded, live workers are terminated
    #: and remaining work is marked ``cancelled``. ``None`` disables.
    deadline: float | None = None
    #: First-retry backoff, doubling per attempt up to ``backoff_cap``.
    backoff_base: float = 0.25
    backoff_cap: float = 30.0
    #: Cancel the rest of the run on the first permanent failure.
    fail_fast: bool = False


def classify_exception(exc: BaseException) -> str:
    """Map an in-worker exception to a failure class."""
    if isinstance(exc, CacheCorruptionError):
        return "cache-corruption"
    return "exception"


def warm_datasets(scale: str, seed: int) -> None:
    """Build or disk-load the shared datasets once, ahead of a fan-out."""
    datasets.workload_dataset(scale, seed)
    datasets.simulation_dataset(scale, seed)


def run_one(
    experiment_id: str,
    scale: str,
    seed: int,
    *,
    attempt: int = 1,
    plan: FaultPlan | None = None,
) -> ExperimentOutcome:
    """Run and render one experiment, capturing failures and timing.

    The fault plan (if any) triggers before the experiment so injected
    misbehaviour lands on a precise ``(experiment, attempt)``.
    """
    outcome = ExperimentOutcome(
        experiment_id=experiment_id, ok=True, attempts=attempt
    )
    stats_before = dict(datasets.dataset_stats())
    try:
        if plan is not None:
            plan.trigger(experiment_id, attempt, timings=outcome.timings)
        with outcome.timings.stage(f"run:{experiment_id}"):
            result = run_experiment(experiment_id, scale=scale, seed=seed)
        with outcome.timings.stage(f"render:{experiment_id}"):
            outcome.rendered = result.render()
    except Exception as exc:
        outcome.ok = False
        outcome.error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        outcome.error_kind = classify_exception(exc)
    stats_after = datasets.dataset_stats()
    outcome.timings.merge_counts(
        {
            name: stats_after.get(name, 0) - stats_before.get(name, 0)
            for name in stats_after
        }
    )
    return outcome


# -- run identity and journal -------------------------------------------------


def run_id(ids: Sequence[str], scale: str, seed: int) -> str:
    """Deterministic id of one run configuration.

    A pure function of the experiment list, scale, seed and code
    version, so an interrupted invocation and its resume agree on the
    journal location without any session state.
    """
    payload = json.dumps(
        {
            "ids": list(ids),
            "scale": scale,
            "seed": seed,
            "version": __version__,
            "cache": datasets.DATASET_CACHE_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def journal_path(cache_dir: str | Path, run: str) -> Path:
    """Where the run's checkpoint journal lives under the cache dir."""
    return Path(cache_dir) / "runs" / run / "journal.jsonl"


def write_journal_header(
    path: Path, ids: Sequence[str], scale: str, seed: int
) -> None:
    """Start a fresh journal (truncating any previous run's)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "run": run_id(ids, scale, seed),
        "ids": list(ids),
        "scale": scale,
        "seed": seed,
        "version": __version__,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def append_journal(path: Path, outcome: ExperimentOutcome) -> None:
    """Checkpoint one finished outcome (flushed and fsync'd).

    A SIGKILL mid-append leaves at most one truncated trailing line,
    which :func:`load_journal` tolerates; everything before it is
    durable, so a resume re-executes at most the in-flight experiments.
    """
    line = json.dumps(outcome.as_journal_dict(), sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_journal(
    path: Path,
) -> tuple[dict[str, object], dict[str, ExperimentOutcome]]:
    """Read a journal: (header, completed outcomes by experiment id).

    Truncated or garbled trailing lines — the expected residue of a
    kill mid-write — are skipped rather than fatal.
    """
    header: dict[str, object] = {}
    completed: dict[str, ExperimentOutcome] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(entry, dict):
                continue
            if index == 0 and "run" in entry:
                header = entry
                continue
            if "id" not in entry:
                continue
            outcome = ExperimentOutcome.from_journal_dict(entry)
            completed[outcome.experiment_id] = outcome
    return header, completed


# -- the supervised executor --------------------------------------------------


def _child_main(
    conn,
    experiment_id: str,
    scale: str,
    seed: int,
    attempt: int,
    plan: FaultPlan | None,
    cache_dir: str | None,
) -> None:
    """Worker entry point: run one attempt, ship the outcome, exit.

    Under fork the dataset memo and cache configuration are inherited;
    under spawn the cache is reconfigured from ``cache_dir`` (matching
    targets keep an inherited memo intact).
    """
    try:
        current = datasets.dataset_cache()
        current_dir = str(current.root) if current is not None else None
        if current_dir != cache_dir:
            datasets.configure_cache(Path(cache_dir) if cache_dir else None)
        outcome = run_one(
            experiment_id, scale, seed, attempt=attempt, plan=plan
        )
        conn.send(outcome)
    finally:
        conn.close()


#: Counter bumped for each worker attempt that ended without a message.
_FAILURE_COUNTERS = {
    "crash": "worker_crashes",
    "timeout": "experiment_timeouts",
}


def _outcome(ended: Attempt, timeout: float | None) -> ExperimentOutcome:
    """What one ended worker attempt means for its experiment."""
    if ended.kind == "message":
        return ended.message  # type: ignore[return-value]
    if ended.kind == "crash":
        error = (
            f"worker for {ended.key} died with exit code {ended.exitcode} "
            f"(attempt {ended.attempt})"
        )
    else:
        error = (
            f"experiment {ended.key} exceeded its {timeout:.1f}s timeout "
            f"(attempt {ended.attempt}); worker killed"
        )
    return ExperimentOutcome(
        experiment_id=str(ended.key),
        ok=False,
        error=error,
        error_kind=ended.kind,
        attempts=ended.attempt,
    )


def run_supervised(
    ids: Sequence[str],
    *,
    scale: str = "paper",
    seed: int = 0,
    config: SupervisorConfig | None = None,
    timings: Timings | None = None,
    plan: FaultPlan | None = None,
    journal: Path | None = None,
    completed: Mapping[str, ExperimentOutcome] | None = None,
) -> list[ExperimentOutcome]:
    """Run experiments under supervision; returns outcomes in id order.

    ``completed`` holds journal-loaded outcomes from an interrupted
    run: successful ones are served as-is (marked ``resumed``), failed
    ones are re-executed. When ``journal`` is given, every finished
    outcome is checkpointed there as it completes.
    """
    config = config if config is not None else SupervisorConfig()
    timings = timings if timings is not None else Timings()
    parent_before = dict(datasets.dataset_stats())

    results: dict[str, ExperimentOutcome] = {}
    todo: list[str] = []
    for experiment_id in ids:
        previous = (completed or {}).get(experiment_id)
        if previous is not None and previous.ok:
            results[experiment_id] = previous
            timings.count("resumed")
        else:
            todo.append(experiment_id)

    if todo:
        with timings.stage("warm-datasets"):
            warm_datasets(scale, seed)

    cache = datasets.dataset_cache()
    cache_dir = str(cache.root) if cache is not None else None
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )

    def finalize(outcome: ExperimentOutcome) -> None:
        results[outcome.experiment_id] = outcome
        timings.merge(outcome.timings)
        if journal is not None and outcome.error_kind != "cancelled":
            append_journal(journal, outcome)

    def cancel_remaining(pool: WorkerPool, reason: str) -> None:
        for experiment_id, started in pool.cancel():
            finalize(
                ExperimentOutcome(
                    experiment_id=str(experiment_id),
                    ok=False,
                    error=f"cancelled: {reason}",
                    error_kind="cancelled",
                    attempts=max(1, started),
                )
            )
            timings.count("cancelled")

    with WorkerPool(
        ctx,
        _child_main,
        lambda experiment_id, attempt: (
            experiment_id, scale, seed, attempt, plan, cache_dir,
        ),
        jobs=config.jobs,
        timeout=config.timeout,
        deadline=config.deadline,
        retries=config.retries,
        seed=seed,
        backoff_base=config.backoff_base,
        backoff_cap=config.backoff_cap,
    ) as pool:
        for experiment_id in todo:
            pool.submit(experiment_id)
        for ended in pool:
            if ended.kind in _FAILURE_COUNTERS:
                timings.count(_FAILURE_COUNTERS[ended.kind])
            outcome = _outcome(ended, config.timeout)
            if (
                not outcome.ok
                and outcome.error_kind in TRANSIENT_KINDS
                and pool.retry(ended)
            ):
                timings.count("retries")
                timings.count("requeued")
                continue
            finalize(outcome)
            if not outcome.ok and config.fail_fast:
                cancel_remaining(
                    pool,
                    f"fail-fast after {outcome.experiment_id} failed "
                    f"({outcome.error_kind})",
                )
        # Iteration ends with work left only at the run deadline; a
        # worker still running then is cancelled, not timed out.
        cancel_remaining(pool, "run deadline exceeded")

    # Run-level counters: the parent's warm-up traffic plus each
    # worker's own deltas (carried in the outcomes' timings).
    parent_after = datasets.dataset_stats()
    timings.merge_counts(
        {
            name: parent_after.get(name, 0) - parent_before.get(name, 0)
            for name in parent_after
        }
    )
    return [results[experiment_id] for experiment_id in ids]
