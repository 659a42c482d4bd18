"""Fault-matrix tests for the supervised executor (repro.experiments.supervisor).

The expensive process-level scenarios share one module-scoped warm
cache so every supervised run starts from disk hits instead of
rebuilding the small-scale datasets.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.timing import Timings
from repro.core.workers import backoff_delay
from repro.experiments import datasets, supervisor
from repro.experiments.faults import FaultPlan
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import main as runner_main
from repro.experiments.supervisor import (
    ExperimentOutcome,
    SupervisorConfig,
    append_journal,
    journal_path,
    load_journal,
    run_id,
    run_one,
    run_supervised,
    warm_datasets,
    write_journal_header,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A dataset cache pre-warmed at small scale, shared by this module."""
    cache_dir = tmp_path_factory.mktemp("supervisor-cache")
    datasets.configure_cache(cache_dir)
    warm_datasets("small", 0)
    yield cache_dir
    datasets.configure_cache(None)
    datasets.reset_dataset_stats()


@pytest.fixture
def cache(warm_cache):
    """Point the dataset layer at the warm cache; restore afterwards."""
    datasets.configure_cache(warm_cache)
    datasets.reset_dataset_stats()
    yield warm_cache
    datasets.configure_cache(None)
    datasets.reset_dataset_stats()


class TestBackoffDelay:
    def test_pure_function_of_inputs(self):
        assert backoff_delay(0, "fig4", 1) == backoff_delay(0, "fig4", 1)
        assert backoff_delay(0, "fig4", 1) != backoff_delay(1, "fig4", 1)
        assert backoff_delay(0, "fig4", 1) != backoff_delay(0, "tab1", 1)

    def test_jittered_exponential_bounds(self):
        for attempt in range(1, 6):
            raw = min(30.0, 0.25 * 2.0 ** (attempt - 1))
            delay = backoff_delay(7, "tab1", attempt)
            assert raw / 2 <= delay < raw

    def test_cap_bounds_late_attempts(self):
        assert backoff_delay(0, "fig2", 50, base=1.0, cap=4.0) < 4.0


class TestJournal:
    def test_round_trip_skips_kill_residue(self, tmp_path):
        path = journal_path(tmp_path, "abc123def456")
        write_journal_header(path, ["fig4", "tab1"], "small", 0)
        append_journal(
            path,
            ExperimentOutcome("fig4", True, rendered="RENDERED", attempts=2),
        )
        with open(path, "a", encoding="utf-8") as fh:
            # A SIGKILL mid-append leaves a truncated trailing line.
            fh.write('{"id": "tab1", "ok": true, "rende')
        header, completed = load_journal(path)
        assert header["scale"] == "small"
        assert header["ids"] == ["fig4", "tab1"]
        assert set(completed) == {"fig4"}
        outcome = completed["fig4"]
        assert outcome.ok and outcome.resumed
        assert outcome.rendered == "RENDERED"
        assert outcome.attempts == 2

    def test_run_id_deterministic_and_sensitive(self):
        ids = ["fig4", "tab1"]
        base = run_id(ids, "small", 0)
        assert base == run_id(ids, "small", 0)
        assert base != run_id(ids, "small", 1)
        assert base != run_id(ids, "paper", 0)
        assert base != run_id(["fig4"], "small", 0)


class TestFaultRecovery:
    def test_kill_hang_and_corruption_recover_byte_identically(self, cache):
        ids = ["fig4", "fig7", "tab1", "txt1"]
        plan = FaultPlan.from_obj(
            [
                {"experiment_id": "fig4", "attempt": 1, "kind": "kill"},
                {
                    "experiment_id": "fig7",
                    "attempt": 1,
                    "kind": "hang",
                    "seconds": 600,
                },
                {"experiment_id": "tab1", "attempt": 1, "kind": "corrupt-cache"},
            ]
        )
        clean = [run_one(i, "small", 0) for i in ids]
        timings = Timings()
        faulted = run_supervised(
            ids,
            scale="small",
            seed=0,
            config=SupervisorConfig(
                jobs=2, timeout=10.0, retries=2, backoff_base=0.05
            ),
            timings=timings,
            plan=plan,
        )
        assert all(o.ok for o in faulted)
        for before, after in zip(clean, faulted):
            assert before.rendered == after.rendered
        by_id = {o.experiment_id: o for o in faulted}
        assert by_id["fig4"].attempts == 2  # killed once, retried
        assert by_id["fig7"].attempts == 2  # hung once, killed, retried
        assert by_id["tab1"].attempts == 1  # recovered in-place
        # Counters match the injected plan exactly.
        assert timings.counters["worker_crashes"] == 1
        assert timings.counters["experiment_timeouts"] == 1
        assert timings.counters["retries"] == 2
        assert timings.counters["requeued"] == 2
        assert timings.counters["faults_injected"] == 1  # corrupt-cache only
        assert timings.counters["cache_quarantined"] == 1

    def test_raise_while_journaling_stops_every_worker(
        self, cache, tmp_path, monkeypatch
    ):
        # fig4 finishes and its checkpoint hits a full disk while fig3's
        # worker hangs: the raise must not leave that worker running.
        def full_disk(path, outcome):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(supervisor, "append_journal", full_disk)
        journal = journal_path(tmp_path, "abc123def456")
        write_journal_header(journal, ["fig3", "fig4"], "small", 0)
        plan = FaultPlan.from_obj(
            [{"experiment_id": "fig3", "kind": "hang", "seconds": 600}]
        )
        with pytest.raises(OSError):
            run_supervised(
                ["fig3", "fig4"],
                scale="small",
                seed=0,
                config=SupervisorConfig(jobs=2),
                plan=plan,
                journal=journal,
            )
        live = multiprocessing.active_children()
        for child in live:  # do not leave a failing run's hang behind
            child.kill()
            child.join()
        assert live == []

    def test_exception_is_permanent_not_retried(self, cache, monkeypatch):
        def boom(scale="paper", seed=0):
            raise RuntimeError("deterministic failure")

        monkeypatch.setitem(EXPERIMENTS, "fig2", boom)
        timings = Timings()
        outcomes = run_supervised(
            ["fig2", "fig4"],
            scale="small",
            seed=0,
            config=SupervisorConfig(jobs=1, retries=2, backoff_base=0.01),
            timings=timings,
        )
        assert not outcomes[0].ok
        assert outcomes[0].error_kind == "exception"
        assert outcomes[0].attempts == 1
        assert "deterministic failure" in outcomes[0].error
        assert outcomes[1].ok
        assert timings.counters.get("retries", 0) == 0

    def test_exhausted_retries_fail_without_sinking_the_run(self, cache):
        plan = FaultPlan.from_obj(
            [
                {"experiment_id": "fig4", "attempt": n, "kind": "exit"}
                for n in (1, 2, 3)
            ]
        )
        timings = Timings()
        outcomes = run_supervised(
            ["fig4", "tab1"],
            scale="small",
            seed=0,
            config=SupervisorConfig(jobs=2, retries=2, backoff_base=0.01),
            timings=timings,
            plan=plan,
        )
        assert not outcomes[0].ok
        assert outcomes[0].error_kind == "crash"
        assert outcomes[0].attempts == 3
        assert outcomes[1].ok  # the healthy experiment still completes
        assert timings.counters["worker_crashes"] == 3
        assert timings.counters["retries"] == 2

    def test_fail_fast_cancels_remaining_work(self, cache, monkeypatch):
        def boom(scale="paper", seed=0):
            raise RuntimeError("boom")

        monkeypatch.setitem(EXPERIMENTS, "fig2", boom)
        timings = Timings()
        outcomes = run_supervised(
            ["fig2", "fig4"],
            scale="small",
            seed=0,
            config=SupervisorConfig(jobs=1, fail_fast=True),
            timings=timings,
        )
        assert outcomes[0].error_kind == "exception"
        assert outcomes[1].error_kind == "cancelled"
        assert timings.counters["cancelled"] == 1

    def test_deadline_bounds_the_run(self, cache):
        plan = FaultPlan.from_obj(
            [{"experiment_id": "fig4", "kind": "hang", "seconds": 600}]
        )
        start = time.monotonic()
        outcomes = run_supervised(
            ["fig4"],
            scale="small",
            seed=0,
            config=SupervisorConfig(jobs=1, deadline=2.0),
            plan=plan,
        )
        assert time.monotonic() - start < 60
        assert not outcomes[0].ok
        # A worker live at the deadline is killed there; depending on
        # which check observes it first the attempt reads as a timeout
        # (kill_at clamped to the deadline) or an outright cancellation.
        assert outcomes[0].error_kind in {"timeout", "cancelled"}


class TestResumeAfterKill:
    def test_sigkilled_run_resumes_byte_identically(self, warm_cache, capsys):
        ids = list(EXPERIMENTS)
        run = run_id(ids, "small", 0)
        journal = journal_path(warm_cache, run)

        datasets.configure_cache(warm_cache)
        datasets.reset_dataset_stats()
        serial = [run_one(i, "small", 0) for i in ids]
        assert all(o.ok for o in serial)
        expected_stdout = "".join(o.rendered + "\n\n" for o in serial)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.runner",
                "--jobs",
                "2",
                "--scale",
                "small",
                "--seed",
                "0",
                "--cache-dir",
                str(warm_cache),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=str(REPO_ROOT),
        )
        # Wait for a few checkpoints, then SIGKILL mid-run.
        poll_deadline = time.monotonic() + 300
        while time.monotonic() < poll_deadline:
            if proc.poll() is not None:
                break
            if journal.exists():
                lines = journal.read_text(encoding="utf-8").splitlines()
                if len(lines) >= 4:  # header + >= 3 finished experiments
                    break
            time.sleep(0.1)
        if proc.poll() is None:
            proc.kill()
            proc.wait()

        header, completed = load_journal(journal)
        assert header["run"] == run

        rc = runner_main(["--resume", run, "--cache-dir", str(warm_cache)])
        out, err = capsys.readouterr()
        assert rc == 0
        assert out == expected_stdout
        assert f"resuming run {run}" in err

        datasets.configure_cache(None)
        datasets.reset_dataset_stats()


class TestRunnerSupervisionCli:
    def test_resume_conflicts_with_no_cache(self, capsys):
        assert runner_main(["--resume", "abc123", "--no-cache"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_resume_rejects_explicit_ids(self, tmp_path, capsys):
        rc = runner_main(
            ["fig4", "--resume", "abc123", "--cache-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "experiment list" in capsys.readouterr().err

    def test_resume_unknown_run_id(self, tmp_path, capsys):
        rc = runner_main(
            ["--resume", "deadbeef0000", "--cache-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "no journal" in capsys.readouterr().err

    def test_resume_rejects_conflicting_scale(self, tmp_path, capsys):
        run = run_id(["fig4"], "small", 0)
        write_journal_header(
            journal_path(tmp_path, run), ["fig4"], "small", 0
        )
        rc = runner_main(
            [
                "--resume",
                run,
                "--scale",
                "paper",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err

    def test_bad_retry_and_budget_flags(self, capsys):
        assert runner_main(["fig4", "--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err
        assert runner_main(["fig4", "--timeout", "0"]) == 2
        assert "--timeout" in capsys.readouterr().err
        assert runner_main(["fig4", "--deadline", "-3"]) == 2
        assert "--deadline" in capsys.readouterr().err

    def test_supervised_run_journals_and_reports_run_id(
        self, cache, capsys, monkeypatch
    ):
        ids = ["fig4", "tab1"]
        rc = runner_main(
            [*ids, "--scale", "small", "--jobs", "2", "--cache-dir", str(cache)]
        )
        out, err = capsys.readouterr()
        assert rc == 0
        run = run_id(ids, "small", 0)
        assert f"run id: {run}" in err
        header, completed = load_journal(journal_path(cache, run))
        assert header["ids"] == ids
        assert set(completed) == set(ids)
        assert all(o.ok for o in completed.values())

    def test_permanent_failure_exits_nonzero_others_complete(
        self, cache, capsys, monkeypatch
    ):
        def boom(scale="paper", seed=0):
            raise RuntimeError("synthetic permanent failure")

        monkeypatch.setitem(EXPERIMENTS, "fig2", boom)
        rc = runner_main(
            [
                "fig2",
                "fig4",
                "--scale",
                "small",
                "--retries",
                "2",
                "--cache-dir",
                str(cache),
            ]
        )
        out, err = capsys.readouterr()
        assert rc == 1
        assert "fig2 failed [exception]" in err
        assert "synthetic permanent failure" in err
        assert "fig4" in out  # the healthy experiment still rendered
