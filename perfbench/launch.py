"""Child-process entry point for one benchmark pass.

Usage::

    python3 perfbench/launch.py PROGRAM TRACE_DIR FACTS [ARGS...]

``PROGRAM`` is ``run`` (the ``repro-run`` CLI), ``lint`` (the
``repro-lint`` CLI) or ``stream`` (:mod:`stream_job`) for a measured
pass; ``probe`` (the host and C-kernel check made during set-up) and
``reference`` (the stream check's expected figures) are not measured.
``TRACE_DIR`` is ``-`` for an untraced pass; otherwise the pass records
spans there (see :mod:`tracer`). ``FACTS`` is the JSON file the pass
writes for the benchmark's output checks.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext


def _probe(facts: str) -> int:
    """Versions, and whether the simulator's C kernel builds and passes
    its selftest. Building here fills the kernel's build cache."""
    import numpy

    info = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    try:
        import cffi

        info["cffi"] = cffi.__version__
    except ImportError:
        info["cffi"] = None
    from repro.sim import _ckernel

    try:
        ffi, lib = _ckernel._build()
        info["ckernel_loaded"] = True
        info["ckernel_selftest"] = bool(_ckernel._selftest(ffi, lib))
    except Exception as exc:  # any build failure disables the kernel
        info["ckernel_loaded"] = False
        info["ckernel_selftest"] = False
        info["ckernel_error"] = f"{type(exc).__name__}: {exc}"
    info["ckernel_used"] = _ckernel.load() is not None
    with open(facts, "w") as fh:
        json.dump(info, fh)
    return 0


def _entry(program: str, facts: str):
    """Import the measured program; returns its ``main(argv)``."""
    if program == "run":
        from repro.experiments.runner import main as entry
    elif program == "lint":
        from repro.analysis.cli import main as entry
    elif program == "stream":
        import stream_job

        def entry(argv):
            dest, seed, rate, shard_rows, jobs = argv
            return stream_job.main(
                dest, facts, int(seed), float(rate), int(shard_rows), int(jobs)
            )
    else:
        raise SystemExit(f"unknown program {program!r}")
    return entry


def _run_facts(args: list[str], facts: str, traced: bool) -> None:
    """Task submissions the run simulated, for items_per_s."""
    from repro.experiments import datasets

    # Memoized by the run itself, so this reads, not rebuilds; when
    # traced, the memo sits behind the span wrapper.
    build = datasets.simulation_dataset
    if traced:
        build = build.__wrapped__
    scale = args[args.index("--scale") + 1]
    seed = int(args[args.index("--seed") + 1])
    result = build(scale, seed).result
    with open(facts, "w") as fh:
        json.dump({"tasks": int(result.counts["submitted"])}, fh)


def main(argv: list[str]) -> int:
    program, trace_dir, facts, *args = argv
    if program == "probe":
        return _probe(facts)
    if program == "reference":
        import stream_job

        seed, rate = args
        with open(facts, "w") as fh:
            json.dump(stream_job.reference(int(seed), float(rate)), fh)
        return 0
    recorder = None
    if trace_dir != "-":
        import tracer

        recorder = tracer.Tracer(trace_dir)
    try:
        with recorder.span("startup.import") if recorder else nullcontext():
            entry = _entry(program, facts)
        if recorder:
            tracer.install(recorder)
        code = entry(args)
        if program == "run":
            _run_facts(args, facts, traced=recorder is not None)
        return code
    finally:
        if recorder:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
