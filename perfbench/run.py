"""The repository benchmark: three workloads through the public CLIs and APIs.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``repro`` from
``src/`` and writes only under ``.perfbench/``. Workloads:

``cold_run``
    ``repro-run --scale paper --jobs 2`` with a fresh cache dir: trace
    generation, simulation, series extraction, cache writes, supervisor
    fan-out and characterization in one command. After measuring, a
    serial rerun on the filled cache must print the same output.
``stream_spill``
    :func:`repro.synth.sharded.shard_task_requests` spills a month-long
    two-column stream of 5M tasks (a fifth of the paper's 25M) into
    shards of 500k rows, and :func:`repro.core.mapreduce.map_reduce` folds it over
    two spawned workers.
``lint_cold``
    ``repro-lint --format json`` with a fresh cache on the pinned tree in
    ``lint_tree.tar.gz``, so source changes do not change the input.

Load model: a closed loop with one client, one pass at a time, each pass
a fresh process; parallelism inside a pass is at most two workers.
Passes repeat until ``--seconds`` have gone by (and at least the
workload's ``min_passes`` ran); every metric is the median over passes.

End-to-end metrics (``--trace 0``): ``wall_s``; ``cpu_s``, user plus
system time of the pass's process tree; ``peak_rss_mb``, the largest
resident set of any one process in that tree; ``items_per_s``; ``disk_mb``,
what the pass leaves on disk; ``setup_s``, the median of the run's
``setup_reps`` set-ups. Failed passes count in ``failed`` of the result
line, and the run prints ``error_rate`` above it.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see :mod:`tracer`), the ratio of
traced to untraced wall time, and the host fingerprint. The last traced
pass's spans are kept as JSONL and as Chrome trace-event JSON under
``.perfbench/traces/``.

Every run prints the host fingerprint, one line per metric, and, as its
last line, the JSON result. It exits 1 when an output check fails and 2
when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: A pass that has not ended by then is killed and counted as failed.
PASS_TIMEOUT_S = 90.0
SCALE = "paper"
JOBS = 2
#: stream_spill: 5M tasks over 30 days in shards of 500k rows.
STREAM_TASKS_PER_HOUR = 25_000_000 / 720 / 5
STREAM_SHARD_ROWS = 500_000
#: The project records 14 of 14 paper claims at paper scale for seeds
#: 0-3. At other seeds a claim can miss (seed 28 passes 13), so there the
#: scorecard only has to agree between cold and warm runs.
CLAIMS = re.compile(rb"^claims_passed : (\d+)", re.M)
CLAIMS_SEEDS = range(4)

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "1/s",
    "disk_mb": "MiB",
    "setup_s": "s",
}


# -- processes ----------------------------------------------------------------


@dataclass
class Pass:
    """What one child process did: its cost, output and facts file."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    facts: dict
    problems: list[str] = field(default_factory=list)
    items: int = 0
    disk_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # The C kernel's build cache, default caches and temp files (the
    # compiler's too) stay in the checkout.
    env["XDG_CACHE_HOME"] = str(WORK / "xdg")
    env["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def launch(program: str, args: list[str], scratch: Path,
           trace_dir: Path | None = None) -> Pass:
    """Run ``launch.py PROGRAM`` as a child and measure it with wait4.

    wait4's rusage covers the child and every descendant it reaped, so
    CPU time is the whole tree's and maxrss is its largest process.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    facts = scratch / "facts.json"
    facts.unlink(missing_ok=True)
    argv = [
        sys.executable, str(HERE / "launch.py"), program,
        str(trace_dir) if trace_dir else "-", str(facts), *args,
    ]
    with open(scratch / "stdout", "wb") as out, open(scratch / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(PASS_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the pass left running
    return Pass(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=(scratch / "stdout").read_bytes(),
        stderr=(scratch / "stderr").read_bytes(),
        facts=json.loads(facts.read_text()) if facts.exists() else {},
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def tree_mb(path: Path) -> float:
    return tracer.tree_bytes(path) / 2**20


def fresh(path: Path) -> Path:
    """Delete ``path`` (a previous pass's files) and create it empty."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- workloads ----------------------------------------------------------------


class Workload:
    """Set-up, one pass's command and its output checks."""

    name = ""
    program = ""
    #: Set-ups per run; setup_s is their median.
    setup_reps = 3
    #: Passes per run at least, however long they take.
    min_passes = 2

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        """Prepare inputs; run once per set-up repetition."""

    def args(self) -> list[str]:
        """Untimed per-pass preparation; returns the pass's arguments."""
        raise NotImplementedError

    def check(self, result: Pass) -> None:
        """Fill ``items``/``disk_mb``; append to ``problems`` on failure."""
        raise NotImplementedError

    def finish(self, passes: list[Pass]) -> None:
        """Checks that need every pass (run once, after measuring)."""


class ColdRun(Workload):
    name = "cold_run"
    program = "run"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.first: bytes | None = None

    def run_args(self, cache: Path, jobs: int) -> list[str]:
        return ["--scale", SCALE, "--seed", str(self.seed), "--jobs", str(jobs),
                "--cache-dir", str(cache)]

    def args(self):
        return self.run_args(fresh(self.work / "cache"), JOBS)

    def check(self, result):
        self._check_output(result)
        self.first = self.first if self.first is not None else result.stdout
        result.items = int(result.facts.get("tasks", 0))
        if result.items <= 0:
            result.problems.append("no simulated task count")
        result.disk_mb = tree_mb(self.work / "cache")

    def finish(self, passes):
        # A serial rerun on the last pass's cache reads every dataset back
        # and must print the cold run's output byte for byte.
        warm = launch("run", self.run_args(self.work / "cache", 1), self.work / "warm")
        self._check_output(warm)
        passes[-1].problems += [f"warm rerun: {p}" for p in warm.problems]

    def _check_output(self, result: Pass) -> None:
        if result.code != 0:
            result.problems.append(f"exit code {result.code}")
        claims = CLAIMS.search(result.stdout)
        if claims is None:
            result.problems.append("no scorecard in the output")
        elif self.seed in CLAIMS_SEEDS and claims.group(1) != b"14":
            result.problems.append("scorecard does not read 'claims_passed : 14'")
        elif claims.group(1) != b"14":
            print(f"seed {self.seed}: scorecard passes {claims.group(1).decode()} "
                  "of 14 claims", file=sys.stderr)
        if self.first is not None and result.stdout != self.first:
            result.problems.append("stdout differs from the cold run's")


class StreamSpill(Workload):
    name = "stream_spill"
    program = "stream"

    def args(self):
        fresh(self.work / "shards")
        return [str(self.work / "shards" / "table"), str(self.seed),
                repr(STREAM_TASKS_PER_HOUR), str(STREAM_SHARD_ROWS), str(JOBS)]

    def check(self, result):
        facts = result.facts
        if result.code != 0 or not facts:
            result.problems.append(f"exit code {result.code}, facts {facts}")
            return
        result.items = facts["num_rows"]
        if not facts["rows"] == facts["ecdf_rows"] == facts["num_rows"] > 0:
            result.problems.append(f"folded rows disagree: {facts}")
        if facts["num_shards"] <= JOBS:
            result.problems.append(f"only {facts['num_shards']} shards")
        result.disk_mb = tree_mb(self.work / "shards")

    def finish(self, passes):
        # Recorded from the generator alone (stream_job.reference) at the
        # commit that pinned this benchmark; other seeds compute it here.
        recorded = json.loads((HERE / "stream_reference.json").read_text())
        expected = recorded.get(str(self.seed)) or launch(
            "reference", [str(self.seed), repr(STREAM_TASKS_PER_HOUR)],
            self.work / "reference").facts
        for result in passes:
            got = {"rows": result.facts.get("rows"),
                   "busiest_hour": result.facts.get("busiest_hour")}
            if got != expected:
                result.problems.append(f"fold {got} != reference {expected}")


class LintCold(Workload):
    name = "lint_cold"
    program = "lint"
    min_passes = 4  # the noisiest workload pass to pass

    def setup(self):
        tree = fresh(self.work / "tree")
        with tarfile.open(HERE / "lint_tree.tar.gz") as archive:
            archive.extractall(tree, filter="data")
        self.files = sum(1 for _ in (tree / "src").rglob("*.py"))

    def args(self):
        tree = self.work / "tree"
        return ["--root", str(tree), "--format", "json",
                "--cache-dir", str(fresh(self.work / "cache")), str(tree / "src")]

    def check(self, result):
        try:
            report = json.loads(result.stdout)
        except ValueError:
            result.problems.append(f"exit code {result.code}, no JSON report")
            return
        if result.code != 0 or report["diagnostics"]:
            result.problems.append(
                f"exit code {result.code}, {len(report['diagnostics'])} diagnostics")
        result.items = report["files_analyzed"]
        if result.items != self.files:
            result.problems.append(
                f"analysed {result.items} files of the {self.files} pinned")
        result.disk_mb = tree_mb(self.work / "cache")


WORKLOADS = {w.name: w for w in (ColdRun, StreamSpill, LintCold)}


# -- host fingerprint ---------------------------------------------------------


def fsync_ms(directory: Path, samples: int = 16) -> float:
    """Median latency of write+fsync of 4 KiB in ``directory``."""
    path = directory / "fsync-probe"
    times = []
    with open(path, "wb") as fh:
        for _ in range(samples):
            fh.write(b"\0" * 4096)
            fh.flush()
            start = time.perf_counter()
            os.fsync(fh.fileno())
            times.append(time.perf_counter() - start)
    path.unlink()
    return statistics.median(times) * 1e3


def host_fingerprint(probe: dict) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "cores": os.cpu_count(), **probe,
            "fsync_ms": fsync_ms(WORK)}


# -- measuring ----------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds``, check them; returns the result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no src/repro under {ROOT}; run from a checkout")
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, work)

    setup_times = []
    probe = {}
    for _ in range(workload.setup_reps):
        start = time.perf_counter()
        probe = launch("probe", [], work / "probe").facts
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    host = host_fingerprint(probe)

    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while (len(plain) + len(traced) < workload.min_passes
           or time.perf_counter() - start < seconds):
        if trace and len(traced) < len(plain):
            trace_dir = fresh(work / "trace")
            result = launch(workload.program, workload.args(), work / "pass", trace_dir)
            _read_trace(result, trace_dir, WORK / "traces" / f"{name}-seed{seed}")
            traced.append(result)
        else:
            result = launch(workload.program, workload.args(), work / "pass")
            plain.append(result)
        workload.check(result)
    passes = plain + traced
    workload.finish(passes)
    for result in passes:
        if result.problems:
            print(f"{name}: pass failed: {'; '.join(result.problems)}", file=sys.stderr)
            print(result.stderr[-2000:].decode(errors="replace"), file=sys.stderr)

    median = statistics.median
    if trace:
        metrics = {
            key: (median([p.layers[key] for p in traced]), _layer_unit(key))
            for key in traced[0].layers
        }
        metrics["trace.overhead_ratio"] = (
            median([p.wall_s for p in traced]) / median([p.wall_s for p in plain]),
            "ratio",
        )
        metrics["host.fsync_ms"] = (host["fsync_ms"], "ms")
        metrics["host.ckernel_ok"] = (
            float(bool(host.get("ckernel_loaded")) and bool(host.get("ckernel_selftest"))),
            "bool",
        )
    else:
        metrics = {
            "wall_s": median([p.wall_s for p in plain]),
            "cpu_s": median([p.cpu_s for p in plain]),
            "peak_rss_mb": median([p.rss_mb for p in plain]),
            "items_per_s": median([p.items / p.wall_s for p in plain]),
            "disk_mb": median([p.disk_mb for p in plain]),
            "setup_s": median(setup_times),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    failed = sum(1 for p in passes if p.problems)
    return {
        "host": host,
        "pass_walls": [p.wall_s for p in plain],
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _read_trace(result: Pass, trace_dir: Path, keep: Path) -> None:
    """Per-layer metrics of a traced pass; its spans are kept at ``keep``."""
    spans = tracer.read_spans(trace_dir)
    result.layers = tracer.layer_metrics(spans)
    result.layers["mapreduce.kernel_s"] = result.facts.get("kernel_s", 0.0)
    result.layers["mapreduce.blocks"] = result.facts.get("blocks", 0)
    keep.parent.mkdir(exist_ok=True)
    with open(keep.with_suffix(".jsonl"), "w") as fh:
        fh.writelines(json.dumps(s, sort_keys=True) + "\n" for s in spans)
    tracer.write_chrome(spans, keep.with_suffix(".chrome.json"))


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"host": result["host"]}, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} passes failed)")
    print("untraced pass wall_s " + " ".join(f"{w:.3f}" for w in result["pass_walls"]))
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
