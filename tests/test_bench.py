"""Tests for the repro-bench harness (snapshots, regression policy, CLI)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.bench import (
    _sticky_series,
    _synthetic_usage,
    compare_snapshots,
    existing_snapshots,
    main,
    next_snapshot_path,
)
from repro.sim import _ckernel


def _snap(*entries):
    return {"version": 1, "seed": 0, "scales": ["small"], "entries": list(entries)}


def _e(name, scale="small", wall=1.0, speedup=None):
    return {"name": name, "scale": scale, "wall_s": wall, "speedup": speedup}


class TestRegressionPolicy:
    def test_speedup_drop_flagged(self):
        base = _snap(_e("series_extraction", speedup=40.0))
        cur = _snap(_e("series_extraction", speedup=3.0))
        (msg,) = compare_snapshots(base, cur)
        assert "series_extraction" in msg and "40.0x -> 3.0x" in msg

    def test_grace_floor_tolerates_fast_enough(self):
        # 40x -> 6x is below 80% retention but above the 5x floor:
        # still a real optimization, so not a regression.
        base = _snap(_e("run_length_segmentation", speedup=40.0))
        cur = _snap(_e("run_length_segmentation", speedup=6.0))
        assert compare_snapshots(base, cur) == []

    def test_near_unity_baselines_not_gated(self):
        # A reduction hovering near 1x has a ratio that is noise, not a
        # guarantee to protect.
        base = _snap(_e("sharded_ecdf", speedup=1.04))
        cur = _snap(_e("sharded_ecdf", speedup=0.7))
        assert compare_snapshots(base, cur) == []

    def test_wall_check_opt_in(self):
        base = _snap(_e("hostload_pipeline", wall=1.0))
        cur = _snap(_e("hostload_pipeline", wall=1.5))
        assert compare_snapshots(base, cur) == []
        (msg,) = compare_snapshots(base, cur, check_wall=True)
        assert "wall" in msg

    def test_new_and_missing_entries_ignored(self):
        base = _snap(_e("series_extraction", speedup=40.0))
        cur = _snap(_e("brand_new_kernel", speedup=1.0))
        assert compare_snapshots(base, cur) == []


class TestSnapshots:
    def test_numbering_starts_at_3_and_increments(self, tmp_path):
        assert next_snapshot_path(tmp_path).name == "BENCH_3.json"
        (tmp_path / "BENCH_3.json").write_text("{}")
        (tmp_path / "BENCH_10.json").write_text("{}")
        (tmp_path / "BENCH_other.txt").write_text("")
        assert [p.name for p in existing_snapshots(tmp_path)] == [
            "BENCH_3.json",
            "BENCH_10.json",
        ]
        assert next_snapshot_path(tmp_path).name == "BENCH_11.json"


class TestSyntheticInputs:
    def test_sticky_series_is_sticky_and_deterministic(self):
        a = _sticky_series(np.random.default_rng(3), 4, 200, 0.5)
        b = _sticky_series(np.random.default_rng(3), 4, 200, 0.5)
        np.testing.assert_array_equal(a, b)
        grid = a.reshape(200, 4).T  # machine-major
        repeats = np.mean(grid[:, 1:] == grid[:, :-1])
        assert 0.5 < repeats < 0.9  # held values, not white noise
        assert a.min() >= 0.0 and a.max() <= 0.5

    def test_synthetic_usage_shape(self):
        usage, machines = _synthetic_usage("small", seed=0)
        assert usage.num_rows == machines.num_rows * (
            usage.num_rows // machines.num_rows
        )
        assert set(usage.column_names) >= {"time", "machine_id", "cpu_usage"}


class TestCli:
    def test_small_scale_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "snaps"
        code = main(
            [
                "--scale", "small",
                "--skip-experiments",
                "--out", str(out),
                "--check",
            ]
        )
        assert code == 0
        snap_path = out / "BENCH_3.json"
        assert snap_path.exists()
        snapshot = json.loads(snap_path.read_text())
        names = {e["name"] for e in snapshot["entries"]}
        assert {
            "series_extraction",
            "run_length_segmentation",
            "mass_count_accumulation",
            "sim_drain",
            "chunked_generation",
            "hostload_pipeline",
        } <= names
        for entry in snapshot["entries"]:
            assert entry["wall_s"] >= 0
            assert entry["peak_rss_kb"] > 0
        # A second run diffs against the first and numbers itself 4.
        assert main(["--scale", "small", "--skip-experiments", "--out", str(out), "--check"]) == 0
        assert (out / "BENCH_4.json").exists()

    def test_only_filter_restricts_families(self, tmp_path):
        out = tmp_path / "snaps"
        code = main(
            [
                "--scale", "small",
                "--only", "sim_drain",
                "--out", str(out),
            ]
        )
        assert code == 0
        snapshot = json.loads((out / "BENCH_3.json").read_text())
        names = {e["name"] for e in snapshot["entries"]}
        assert names == {"sim_drain"}
        (entry,) = snapshot["entries"]
        assert entry["speedup"] is not None  # scalar golden ran too
        assert entry["ckernel"] is (_ckernel.load() is not None)
        assert entry["ckernel_refusal"] == _ckernel.refusal()

    def test_unknown_scale_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--scale", "galactic", "--out", str(tmp_path), "--no-write"])
