"""Spans around the public functions of each layer, recorded from outside.

The benchmark does not edit the program: :func:`install` wraps the
layer boundaries of an already-imported ``repro`` package and records
one span per call. A span is ``(name, id, parent, pid, start, end,
attrs)``; times are ``time.perf_counter_ns()`` readings, which on
Linux come from ``CLOCK_MONOTONIC`` and so line up across the forked
workers of one run.

Two traps decide how the wrappers are installed:

* Modules bind functions with ``from ... import``, e.g.
  ``experiments/datasets.py`` holds its own names for the ``synth``
  and ``hostload`` builders. Patching only the defining module would
  leave those call sites unwrapped and their metrics silently zero, so
  every ``repro.*`` module attribute that refers to the original
  function is replaced.
* Forked supervisor workers leave through ``os._exit``, which skips
  ``atexit``. The wrapper around :func:`repro.experiments.supervisor.
  run_one` therefore writes the worker's spans to a file of its own
  before the worker reports back.

Spans stay in memory until :meth:`Tracer.flush`, which appends them to
``spans-<pid>.jsonl`` in the trace directory.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "Tracer", "install", "layer_metrics", "read_spans", "tree_bytes", "write_chrome",
]


class Tracer:
    """In-memory span recorder for one process (and its forked children)."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self._next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child keeps the open stack so its spans name their parent
        # in the parent process; spans already closed belong to the
        # parent's file, not the child's.
        self.pid = os.getpid()
        self.spans = []

    @property
    def in_worker(self) -> bool:
        return self.pid != self.root_pid

    def innermost(self, name: str) -> dict | None:
        """The innermost open span called ``name``, if any."""
        for span in reversed(self.stack):
            if span["name"] == name:
                return span
        return None

    @contextmanager
    def span(self, name: str, **attrs):
        self._next_id += 1
        span = {
            "name": name,
            "id": f"{self.pid}-{self._next_id}",
            "parent": self.stack[-1]["id"] if self.stack else None,
            "pid": self.pid,
            "start": time.perf_counter_ns(),
            "end": None,
            "attrs": attrs,
        }
        self.stack.append(span)
        try:
            yield span["attrs"]
        finally:
            span["end"] = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append(span)

    def flush(self) -> None:
        """Append this process's finished spans to its own JSONL file."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        self.spans = []


# -- installing the wrappers --------------------------------------------------


def _replace_everywhere(original, replacement) -> int:
    """Point every ``repro.*`` module attribute bound to ``original`` at
    ``replacement``; returns how many bindings were replaced."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"no module binds {original!r}; nothing wrapped")
    return replaced


def _rows(obj) -> int:
    if isinstance(obj, dict):
        return sum(_rows(v) for v in obj.values())
    return len(obj)


def tree_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the ``repro`` modules already imported.

    Layers the program did not import are left alone, so tracing adds no
    imports of its own to the pass it measures.
    """

    def loaded(name):
        return sys.modules.get(name)

    def spanned(func, name, after=None, before=None):
        """``func`` inside a span; ``before``/``after`` add span attributes."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            with tracer.span(name, **attrs) as span_attrs:
                result = func(*args, **kwargs)
                if after is not None:
                    span_attrs.update(after(result, args, kwargs))
                return result

        return wrapper

    def function(module, attr, name, **hooks):
        """Wrap a module function wherever it is bound."""
        original = getattr(module, attr)
        wrapper = spanned(original, name, **hooks)
        for extra in ("cache_clear", "cache_info"):  # lru_cache'd builders
            if hasattr(original, extra):
                setattr(wrapper, extra, getattr(original, extra))
        _replace_everywhere(original, wrapper)

    def method(cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(spanned(original.__func__, name, **hooks)))
        else:
            setattr(cls, attr, spanned(original, name, **hooks))

    # synth: rows are counted on the outermost generator span only, so a
    # builder that calls another builder is not counted twice.
    def synth_rows(result, args, kwargs):
        nested = sum(1 for s in tracer.stack if s["name"] == "synth.generate")
        return {"rows": _rows(result) if nested == 1 else 0}

    google_model = loaded("repro.synth.google_model")
    for module, attr in (
        (google_model, "generate_google_jobs"),
        (google_model, "generate_task_requests"),
        (loaded("repro.synth.grid_model"), "generate_all_grids"),
        (loaded("repro.synth.machines"), "generate_machines"),
    ):
        function(module, attr, "synth.generate", after=synth_rows)

    iter_task_requests = google_model.iter_task_requests

    @functools.wraps(iter_task_requests)
    def traced_stream(*args, **kwargs):
        chunks = iter_task_requests(*args, **kwargs)
        while True:
            with tracer.span("synth.generate") as attrs:
                try:
                    chunk = next(chunks)
                except StopIteration:
                    attrs["rows"] = 0
                    return
                attrs["rows"] = len(chunk)
            yield chunk

    _replace_everywhere(iter_task_requests, traced_stream)

    # sim / hostload
    method(
        loaded("repro.sim.cluster").ClusterSimulator,
        "run",
        "sim.run",
        after=lambda r, a, k: {"tasks": int(r.counts["submitted"])},
    )
    for attr in ("all_machine_series", "grouped_machine_series", "machine_series"):
        function(loaded("repro.hostload.series"), attr, "hostload.series")

    # core.diskcache: byte counts come from the entry's documented
    # meta.json, hits from the MISS sentinel.
    diskcache = loaded("repro.core.diskcache")

    def put_bytes(result, args, kwargs):
        cache, key = args[0], args[1]
        meta = Path(cache.root) / key[:2] / key / "meta.json"
        try:
            return {"bytes": int(json.loads(meta.read_text())["nbytes"])}
        except (OSError, ValueError, KeyError):
            return {"bytes": 0}

    def traced_get(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            before = self.stats.quarantined
            with tracer.span("diskcache.get") as attrs:
                result = original(self, *args, **kwargs)
                attrs["hit"] = result is not diskcache.MISS
                attrs["quarantined"] = self.stats.quarantined - before
                return result

        return wrapper

    for attr in ("put", "put_path"):
        method(diskcache.DiskCache, attr, "diskcache.put", after=put_bytes)
    for attr in ("get", "get_path"):
        cls = diskcache.DiskCache
        setattr(cls, attr, traced_get(cls.__dict__[attr]))

    # core.fsutil and core.shard both end in os.fsync (shard fsyncs its
    # column files inline), so the syscall is the one place that sees
    # every flush the storage layers make.
    real_fsync = os.fsync

    def traced_fsync(fd):
        with tracer.span("fsutil.fsync"):
            return real_fsync(fd)

    os.fsync = traced_fsync

    # core.shard, core.mapreduce (imported by the dataset layer and by
    # the stream job). Recovery counters come from the caller's Timings.
    def spill_facts(result, args, kwargs):
        return {"shards": int(result.num_shards), "bytes": tree_bytes(Path(result.root))}

    def reduce_counters(result, args, kwargs):
        timings = kwargs.get("timings")
        counters = timings.counters if timings is not None else {}
        return {"retries": int(counters.get("mapreduce_retries", 0))}

    sharded, shard, mapreduce = (
        loaded(f"repro.{name}") for name in ("synth.sharded", "core.shard", "core.mapreduce")
    )
    if sharded:
        function(sharded, "shard_task_requests", "shard.spill", after=spill_facts)
    if shard:
        method(shard.ShardedTable, "open", "shard.open")
    if mapreduce:
        for attr in ("map_reduce", "map_shards"):
            function(mapreduce, attr, "mapreduce.reduce", after=reduce_counters)
    if loaded("repro.experiments.runner"):
        _install_experiments(tracer, function, method)
    if loaded("repro.analysis.engine"):
        function(
            loaded("repro.analysis.engine"),
            "lint_paths",
            "analysis.lint",
            after=lambda r, a, k: {
                "files_analyzed": int(r.files_analyzed),
                "files_cached": int(r.files_cached),
            },
        )


def _install_experiments(tracer: Tracer, function, method) -> None:
    """Dataset builds, characterization, re-runs, rendering, fan-out."""
    from repro.experiments import base, datasets, registry, supervisor

    for attr in ("workload_dataset", "simulation_dataset"):
        function(datasets, attr, "experiments.dataset")
    function(
        registry,
        "run_experiment",
        "experiments.characterize",
        before=lambda a, k: {"experiment": a[0] if a else k["experiment_id"]},
    )

    # The scorecard re-runs other experiments through the registry dict;
    # those calls get their own span so characterize_s counts each
    # experiment's own work once.
    def rerun(experiment_id, run):
        @functools.wraps(run)
        def wrapper(*args, **kwargs):
            current = tracer.innermost("experiments.characterize")
            if current is not None and current["attrs"]["experiment"] == experiment_id:
                return run(*args, **kwargs)
            with tracer.span("experiments.rerun", experiment=experiment_id):
                return run(*args, **kwargs)

        return wrapper

    for experiment_id, run in list(registry.EXPERIMENTS.items()):
        registry.EXPERIMENTS[experiment_id] = rerun(experiment_id, run)
    method(base.ExperimentResult, "render", "experiments.render")

    def fanout_counters(result, args, kwargs):
        timings = kwargs.get("timings")
        counters = timings.counters if timings is not None else {}
        return {"retries": int(counters.get("retries", 0))}

    function(supervisor, "run_supervised", "supervisor.fanout", after=fanout_counters)
    function(supervisor, "warm_datasets", "supervisor.warm")

    run_one = supervisor.run_one

    @functools.wraps(run_one)
    def traced_run_one(*args, **kwargs):
        try:
            with tracer.span("supervisor.run_one") as attrs:
                outcome = run_one(*args, **kwargs)
                attrs["ok"] = bool(outcome.ok)
                return outcome
        finally:
            if tracer.in_worker:
                tracer.flush()

    _replace_everywhere(run_one, traced_run_one)


# -- reading spans back -------------------------------------------------------


def read_spans(trace_dir: str | os.PathLike) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of each span not covered by its same-process children.

    A forked worker's spans name a parent in another process; that time
    ran alongside the parent, so it is not taken off the parent's.
    """
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: (s["end"] - s["start"]) for s in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            own[parent["id"]] -= span["end"] - span["start"]
    return {sid: max(0, ns) / 1e9 for sid, ns in own.items()}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer sums over one traced pass (names as in BENCHMARK.json)."""
    own = self_times(spans)

    def pick(name):
        return [s for s in spans if s["name"] == name]

    def self_s(name):
        return sum(own[s["id"]] for s in pick(name))

    def total(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in pick(name))

    sim_wall = sum((s["end"] - s["start"]) / 1e9 for s in pick("sim.run"))
    sim_tasks = total("sim.run", "tasks")
    gets = pick("diskcache.get")
    root_pid = next((s["pid"] for s in spans if s["name"] == "startup.import"), None)
    runs = pick("supervisor.run_one")
    return {
        "startup.import_s": self_s("startup.import"),
        "synth.generate_s": self_s("synth.generate"),
        "synth.rows": total("synth.generate", "rows"),
        "sim.run_s": self_s("sim.run"),
        "sim.tasks": sim_tasks,
        "sim.tasks_per_s": sim_tasks / sim_wall if sim_wall else 0.0,
        "hostload.series_s": self_s("hostload.series"),
        "diskcache.put_s": self_s("diskcache.put"),
        "diskcache.put_calls": len(pick("diskcache.put")),
        "diskcache.put_mb": total("diskcache.put", "bytes") / 2**20,
        "diskcache.get_s": self_s("diskcache.get"),
        "diskcache.get_calls": len(gets),
        "diskcache.hit_ratio": (
            sum(1 for s in gets if s["attrs"].get("hit")) / len(gets) if gets else 0.0
        ),
        "diskcache.quarantined": total("diskcache.get", "quarantined"),
        "fsutil.fsync_calls": len(pick("fsutil.fsync")),
        "fsutil.fsync_s": self_s("fsutil.fsync"),
        "experiments.dataset_s": self_s("experiments.dataset"),
        "experiments.characterize_s": self_s("experiments.characterize"),
        "experiments.rerun_s": self_s("experiments.rerun"),
        "experiments.render_s": self_s("experiments.render"),
        "experiments.failed": sum(1 for s in runs if not s["attrs"].get("ok")),
        "supervisor.workers": len({s["pid"] for s in runs if s["pid"] != root_pid}),
        "supervisor.fanout_s": self_s("supervisor.fanout"),
        "supervisor.retries": total("supervisor.fanout", "retries"),
        "shard.write_s": self_s("shard.spill"),
        "shard.shards": total("shard.spill", "shards"),
        "shard.write_mb": total("shard.spill", "bytes") / 2**20,
        "shard.open_s": self_s("shard.open"),
        "mapreduce.reduce_s": self_s("mapreduce.reduce"),
        "mapreduce.retries": total("mapreduce.reduce", "retries"),
        "analysis.lint_s": self_s("analysis.lint"),
        "analysis.files_analyzed": total("analysis.lint", "files_analyzed"),
        "analysis.files_cached": total("analysis.lint", "files_cached"),
    }


def write_chrome(spans: list[dict], path: str | os.PathLike) -> None:
    """Chrome trace-event JSON (chrome://tracing, Perfetto) of the spans."""
    origin = min((s["start"] for s in spans), default=0)
    events = [
        {
            "name": s["name"],
            "cat": s["name"].split(".")[0],
            "ph": "X",
            "ts": (s["start"] - origin) / 1e3,
            "dur": (s["end"] - s["start"]) / 1e3,
            "pid": s["pid"],
            "tid": s["pid"],
            "args": {**s["attrs"], "id": s["id"], "parent": s["parent"]},
        }
        for s in spans
    ]
    Path(path).write_text(json.dumps({"traceEvents": events}) + "\n")
