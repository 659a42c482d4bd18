"""Self-test of the benchmark: every wrapper fires where it should.

Run with ``python3 -m pytest perfbench -q`` (about two minutes: one
traced run of each workload, and a traced warm rerun).
"""

from __future__ import annotations

import json

import pytest

import run
import tracer


def _span(sid, pid, parent, start, end, name="x"):
    return {"id": sid, "pid": pid, "parent": parent, "start": start,
            "end": end, "name": name, "attrs": {}}


def test_self_time_subtracts_only_same_process_children():
    spans = [
        _span("1-1", 1, None, 0, 10_000_000_000),
        _span("1-2", 1, "1-1", 0, 4_000_000_000),
        _span("2-1", 2, "1-1", 0, 9_000_000_000),  # forked worker
    ]
    own = tracer.self_times(spans)
    assert own == {"1-1": 6.0, "1-2": 4.0, "2-1": 9.0}


def _pass(stdout=b"", facts=None, code=0):
    return run.Pass(code, 1.0, 1.0, 1.0, stdout, b"", facts or {})


def test_run_checks_fail_on_wrong_scorecard_or_changed_output(tmp_path):
    workload = run.ColdRun(0, tmp_path)
    first = _pass(b"claims_passed : 14\n", {"tasks": 5})
    workload.check(first)
    assert first.problems == []
    changed = _pass(b"claims_passed : 14\nmore\n", {"tasks": 5})
    workload.check(changed)
    assert changed.problems == ["stdout differs from the cold run's"]
    short = _pass(b"claims_passed : 13\n", {"tasks": 5})
    workload.check(short)
    assert "scorecard does not read 'claims_passed : 14'" in short.problems


def test_claim_count_is_required_only_where_recorded(tmp_path):
    workload = run.ColdRun(28, tmp_path)
    result = _pass(b"claims_passed : 13\n", {"tasks": 5})
    workload.check(result)
    assert result.problems == []
    missing = _pass(b"no scorecard\n", {"tasks": 5})
    workload.check(missing)
    assert "no scorecard in the output" in missing.problems


def test_stream_checks_fail_on_lost_rows(tmp_path):
    facts = {"num_rows": 10, "rows": 9, "ecdf_rows": 10, "num_shards": 5}
    result = _pass(facts=facts)
    run.StreamSpill(0, tmp_path).check(result)
    assert result.problems and "folded rows disagree" in result.problems[0]


def test_lint_checks_fail_on_diagnostics(tmp_path):
    workload = run.LintCold(0, tmp_path)
    workload.files = 2
    report = {"diagnostics": [{"rule": "REP101"}], "files_analyzed": 2}
    result = _pass(json.dumps(report).encode(), code=1)
    workload.check(result)
    assert result.problems == ["exit code 1, 1 diagnostics"]


@pytest.fixture(scope="module")
def traced():
    results = {}

    def get(name):
        if name not in results:
            results[name] = run.measure(name, 0, 1, True)
            assert results[name]["correct"], results[name]
        return {k: m["value"] for k, m in results[name]["metrics"].items()}

    return get


def test_cold_run_reaches_every_pipeline_layer(traced):
    m = traced("cold_run")
    assert m["synth.rows"] > 0 and m["synth.generate_s"] > 0
    assert m["sim.tasks"] > 0 and m["sim.run_s"] > 0
    assert m["hostload.series_s"] > 0
    assert m["diskcache.put_calls"] == 2 and m["diskcache.put_mb"] > 0
    assert m["fsutil.fsync_calls"] > 0
    # Spans of forked workers arrive through their per-process files.
    assert m["supervisor.workers"] >= 2
    assert m["experiments.characterize_s"] > 0 and m["experiments.failed"] == 0
    assert m["analysis.lint_s"] == 0 and m["shard.shards"] == 0
    # Writing the two cache entries is the largest single self time.
    times = {k: v for k, v in m.items() if k.endswith("_s") and k != "sim.tasks_per_s"}
    assert max(times, key=times.get) == "diskcache.put_s"
    spans = [json.loads(line) for line in
             open(run.WORK / "traces" / "cold_run-seed0.jsonl")]
    assert len({s["pid"] for s in spans}) > 2
    chrome = json.loads((run.WORK / "traces" / "cold_run-seed0.chrome.json").read_text())
    assert len(chrome["traceEvents"]) == len(spans)


def test_warm_rerun_does_no_generation_or_simulation(traced):
    traced("cold_run")  # leaves its filled cache behind
    work = run.WORK / "cold_run"
    workload = run.ColdRun(0, work)
    trace_dir = run.fresh(work / "warm-trace")
    result = run.launch("run", workload.run_args(work / "cache", 1), work / "warm", trace_dir)
    assert result.code == 0
    m = tracer.layer_metrics(tracer.read_spans(trace_dir))
    # synth/hostload are bound into experiments.datasets by from-imports;
    # their wrappers must be reached there, and read zero on a warm cache.
    assert m["sim.tasks"] == 0 and m["sim.run_s"] == 0
    assert m["synth.rows"] == 0 and m["synth.generate_s"] == 0
    assert m["hostload.series_s"] == 0
    assert m["diskcache.get_calls"] == 2 and m["diskcache.hit_ratio"] == 1
    assert m["diskcache.put_calls"] == 0 and m["supervisor.workers"] == 0
    assert m["experiments.characterize_s"] > 0 and m["startup.import_s"] > 0


def test_stream_spill_reaches_shard_and_mapreduce(traced):
    m = traced("stream_spill")
    assert m["shard.shards"] >= 10 and m["shard.write_mb"] > 0
    assert m["synth.rows"] > 4_000_000
    assert m["mapreduce.blocks"] == 2 and m["mapreduce.kernel_s"] > 0
    assert m["mapreduce.reduce_s"] > 0 and m["shard.open_s"] > 0
    assert m["fsutil.fsync_calls"] > 0 and m["sim.tasks"] == 0


def test_lint_cold_reaches_analysis_and_cache(traced):
    m = traced("lint_cold")
    assert m["analysis.files_analyzed"] == 131 and m["analysis.files_cached"] == 0
    assert m["diskcache.put_calls"] > 200 and m["fsutil.fsync_calls"] > 0
    assert m["analysis.lint_s"] > 0 and m["synth.rows"] == 0
