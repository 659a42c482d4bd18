"""Deterministic fault injection for the supervised experiment runner.

Every recovery path in :mod:`repro.experiments.supervisor` — worker
crash, hang past the timeout, in-experiment exception, corrupted cache
entry — is exercised by *injecting* the failure rather than trusting
that the code would handle it. A :class:`FaultPlan` names exactly which
``(experiment, attempt)`` pairs misbehave and how, so a faulted run is
as reproducible as a clean one: the same plan against the same registry
produces the same retries, the same counters and (because experiments
are pure functions of ``(scale, seed)``) byte-identical rendered
output.

Plans are plain JSON — either a list of fault specs or an object with a
``"faults"`` list::

    [
      {"experiment_id": "fig4", "attempt": 1, "kind": "kill"},
      {"experiment_id": "fig7", "attempt": 1, "kind": "hang", "seconds": 600},
      {"experiment_id": "tab1", "attempt": 1, "kind": "corrupt-cache"}
    ]

They activate through the CLI (``repro-run --fault-plan <path-or-json>``)
or the ``REPRO_FAULT_PLAN`` environment variable, which accepts a file
path or inline JSON. Attempts are 1-based: a ``kill`` at attempt 1
means the first try dies and the retry succeeds.

Fault kinds
-----------
``raise``
    Raise :class:`FaultInjected` inside the worker. Experiments are
    deterministic, so the supervisor classifies this as a *permanent*
    ``exception`` failure and does not retry it.
``raise-corruption``
    Raise :class:`~repro.core.diskcache.CacheCorruptionError`; the
    supervisor classifies it ``cache-corruption`` and retries.
``kill``
    ``SIGKILL`` the worker process (an OOM-kill stand-in); classified
    ``crash`` and retried.
``exit``
    Worker exits with a nonzero status; classified ``crash``.
``hang``
    Sleep ``seconds`` (default one hour) before doing any work, so the
    per-experiment timeout fires; classified ``timeout`` and retried.
``corrupt-cache``
    Truncate the payload of one on-disk dataset cache entry and drop
    the in-process memo, forcing the experiment through the cache's
    quarantine-and-rebuild path. The experiment still succeeds; the
    ``cache_quarantined`` counter records the recovery.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.diskcache import CacheCorruptionError
from ..core.timing import Timings
from . import datasets

__all__ = [
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "plan_from_env",
]

#: Environment variable holding a plan path or inline JSON.
PLAN_ENV = "REPRO_FAULT_PLAN"

FAULT_KINDS = (
    "raise",
    "raise-corruption",
    "kill",
    "exit",
    "hang",
    "corrupt-cache",
)


class FaultInjected(RuntimeError):
    """The generic injected failure (``kind: raise``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected misbehaviour, keyed by ``(experiment_id, attempt)``."""

    experiment_id: str
    kind: str = "raise"
    attempt: int = 1
    seconds: float = 3600.0  # hang duration
    exit_code: int = 3  # for kind "exit"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; available: {FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise ValueError(f"attempt is 1-based, got {self.attempt}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec`, queried per attempt."""

    faults: tuple[FaultSpec, ...] = ()

    @classmethod
    def from_obj(cls, obj: object) -> "FaultPlan":
        """Build a plan from decoded JSON (a list, or ``{"faults": []}``)."""
        if isinstance(obj, dict):
            obj = obj.get("faults", [])
        if not isinstance(obj, list):
            raise ValueError(
                f"fault plan must be a list of specs, got {type(obj).__name__}"
            )
        return cls(faults=tuple(FaultSpec(**spec) for spec in obj))

    @classmethod
    def load(cls, source: str | Path) -> "FaultPlan":
        """Parse a plan from inline JSON or a JSON file path."""
        text = str(source)
        if not text.lstrip().startswith(("[", "{")):
            text = Path(text).read_text(encoding="utf-8")
        return cls.from_obj(json.loads(text))

    def lookup(self, experiment_id: str, attempt: int) -> FaultSpec | None:
        """The spec scheduled for this ``(experiment, attempt)``, if any."""
        for spec in self.faults:
            if spec.experiment_id == experiment_id and spec.attempt == attempt:
                return spec
        return None

    def trigger(
        self,
        experiment_id: str,
        attempt: int,
        timings: Timings | None = None,
    ) -> None:
        """Misbehave as planned for this attempt (no-op when unplanned).

        Called inside the worker before the experiment runs. ``kill``
        and ``exit`` do not return; ``raise*`` kinds raise; ``hang``
        returns only after sleeping; ``corrupt-cache`` damages the disk
        cache and returns so the experiment exercises recovery.
        """
        spec = self.lookup(experiment_id, attempt)
        if spec is None:
            return
        if timings is not None:
            timings.count("faults_injected")
        if spec.kind == "raise":
            raise FaultInjected(
                f"injected failure: {experiment_id} attempt {attempt}"
            )
        if spec.kind == "raise-corruption":
            raise CacheCorruptionError(
                f"injected cache corruption: {experiment_id} attempt {attempt}"
            )
        if spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind == "exit":
            os._exit(spec.exit_code)
        if spec.kind == "hang":
            # Not a wall-clock *read*: the sleep only delays the worker
            # so the supervisor's timeout path fires; outputs stay a
            # pure function of (scale, seed).
            time.sleep(spec.seconds)
            return
        if spec.kind == "corrupt-cache":
            corrupt_one_cache_entry()


def corrupt_one_cache_entry() -> str | None:
    """Truncate one dataset cache entry and drop the in-process memo.

    Picks the lexicographically first key so repeated runs corrupt the
    same entry. Returns the corrupted key, or ``None`` when no cache is
    configured or populated. Clearing the memo forces the next dataset
    access back through the disk cache, where the truncated entry is
    quarantined and rebuilt.
    """
    cache = datasets.dataset_cache()
    if cache is None:
        return None
    keys = sorted(cache.entries())
    if not keys:
        return None
    skeleton = cache._entry_dir(keys[0]) / "skeleton.pkl"
    try:
        payload = skeleton.read_bytes()
        skeleton.write_bytes(payload[: len(payload) // 2])
    except OSError:
        return None
    datasets.workload_dataset.cache_clear()
    datasets.simulation_dataset.cache_clear()
    return keys[0]


def plan_from_env(environ: dict[str, str] | None = None) -> FaultPlan | None:
    """The plan named by ``$REPRO_FAULT_PLAN``, or ``None``."""
    env = os.environ if environ is None else environ
    source = env.get(PLAN_ENV)
    if not source:
        return None
    return FaultPlan.load(source)
