"""Integration tests: every experiment runs and matches the paper's shape.

These are the reproduction's acceptance tests — each experiment's
headline comparative claim (who wins, which direction) must hold at the
small test scale. Magnitudes are checked loosely where the small scale
supports it; exact magnitudes are the benchmarks' job at paper scale.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, run_all, run_experiment
from repro.experiments.runner import main as runner_main


@pytest.fixture(scope="module")
def results():
    return run_all(scale="small", seed=0)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENTS) == 23
        assert "scorecard" in EXPERIMENTS
        for fig in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13):
            assert f"fig{fig}" in EXPERIMENTS
        for other in ("tab1", "tab2", "tab3", "txt1", "txt2"):
            assert other in EXPERIMENTS
        for ext in ("ext1", "ext2", "ext3", "ext4", "ext5"):
            assert ext in EXPERIMENTS

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment("fig999")

    def test_render_has_tables(self, results):
        for result in results.values():
            text = result.render()
            assert result.experiment_id in text
            assert len(result.tables) >= 1


class TestWorkloadClaims:
    def test_fig2_low_priorities_dominate(self, results):
        m = results["fig2"].metrics
        assert m["job_frac_low(1-4)"] > 0.6
        assert m["total_tasks"] > m["total_jobs"]

    def test_fig3_google_shorter(self, results):
        m = results["fig3"].metrics
        assert m["google_frac_under_1000s"] > 0.7
        assert m["grids_mostly_over_2000s"]

    def test_fig4_pareto_ordering(self, results):
        m = results["fig4"].metrics
        assert m["google_more_pareto"]
        assert m["google_joint_small_side"] == pytest.approx(6, abs=3)
        assert m["auvergrid_joint_small_side"] == pytest.approx(24, abs=5)
        assert m["google_mmdist_days"] > m["auvergrid_mmdist_days"]

    def test_fig5_google_fastest_submission(self, results):
        assert results["fig5"].metrics["google_shortest_intervals"]

    def test_tab1_rates_and_fairness(self, results):
        m = results["tab1"].metrics
        assert m["google_rate_highest"]
        assert m["google_fairness_highest"]
        assert m["google_avg_per_hour"] == pytest.approx(552, rel=0.1)
        assert m["google_fairness"] == pytest.approx(0.94, abs=0.05)

    def test_fig6_google_lower_demand(self, results):
        m = results["fig6"].metrics
        assert m["google_lower_cpu"]
        assert m["google_frac_under_1_cpu"] > 0.8
        assert m["google_mem_median_mb_32gb"] < m["min_grid_mem_median_mb"]

    def test_txt2_task_length_stats(self, results):
        m = results["txt2"].metrics
        assert m["google_frac_under_10min"] == pytest.approx(0.55, abs=0.07)
        assert m["google_frac_under_1h"] == pytest.approx(0.90, abs=0.06)
        assert m["cloud_tasks_mostly_shorter"]
        assert m["cloud_max_longer"]


class TestHostLoadClaims:
    def test_fig7_memory_ordering(self, results):
        m = results["fig7"].metrics
        assert m["assigned_exceeds_consumed"]

    def test_fig8_queue_shape(self, results):
        m = results["fig8"].metrics
        assert m["steady_running_mean"] > 5
        assert m["finished_grows_linearly"]
        assert m["final_abnormal_fraction"] == pytest.approx(0.6, abs=0.1)

    def test_fig9_skewed_durations(self, results):
        m = results["fig9"].metrics
        assert m["intervals_with_data"] >= 2
        assert m["skewed_everywhere"]

    def test_fig10_cpu_idle_mem_busy(self, results):
        m = results["fig10"].metrics
        assert m["high_priority_cpu_mostly_idle"]
        assert m["cpu_share_low_band"] > 0.4

    def test_tab23_cpu_faster_than_mem(self):
        from repro.experiments.datasets import simulation_dataset
        from repro.experiments.tab23_level_durations import run as run_tab23

        combined = run_tab23(scale="small")
        assert combined.metrics["cpu_changes_faster_than_mem"]

    def test_fig11_high_band_lighter(self, results):
        m = results["fig11"].metrics
        assert m["high_band_uses_less"]
        assert m["near_uniform"]

    def test_fig12_mem_above_cpu(self, results):
        m = results["fig12"].metrics
        assert m["mem_above_cpu"]
        assert m["mean_mem_usage_pct"] > m["mean_mem_usage_high_pct"]

    def test_fig13_cloud_noisier(self, results):
        m = results["fig13"].metrics
        assert m["google_mem_above_cpu"]
        assert m["grid_cpu_above_mem"]
        assert m["google_noisier"]
        assert m["noise_ratio_google_over_auvergrid"] > 3

    def test_txt1_abnormal_mix(self, results):
        m = results["txt1"].metrics
        assert m["abnormal_fraction"] == pytest.approx(0.592, abs=0.08)
        assert m["fail_dominates_abnormal"]
        assert m["fail_share_of_abnormal"] == pytest.approx(0.5, abs=0.1)
        assert m["kill_share_of_abnormal"] == pytest.approx(0.307, abs=0.08)


class TestExtensionClaims:
    def test_ext1_grids_more_diurnal(self, results):
        assert results["ext1"].metrics["grids_all_more_diurnal"]

    def test_ext2_cloud_harder_to_predict(self, results):
        m = results["ext2"].metrics
        assert m["cloud_harder_to_predict"]
        assert m["best_cloud_rmse"] > m["best_grid_rmse"]

    def test_ext3_consolidation_worthwhile(self, results):
        m = results["ext3"].metrics
        assert m["consolidation_worthwhile"]
        assert 0 < m["mean_shutoff_fraction"] < 1

    def test_ext4_fitting_contrast(self, results):
        m = results["ext4"].metrics
        assert m["auvergrid_single_family_adequate"]
        assert m["google_needs_mixture"]

    def test_ext5_modes_distinct(self, results):
        m = results["ext5"].metrics
        assert m["num_modes"] >= 2
        assert m["distinct_modes_found"]


class TestScorecard:
    def test_all_claims_pass_at_small_scale(self):
        from repro.experiments.scorecard import run as run_scorecard

        result = run_scorecard(scale="small", seed=0)
        failing = [
            row for row in result.tables[0].rows if row[3] == "FAIL"
        ]
        assert result.metrics["all_pass"], f"failing claims: {failing}"
        assert result.metrics["claims_total"] >= 12


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out

    def test_run_one(self, capsys):
        # --no-cache keeps the test hermetic (no writes to ~/.cache).
        assert runner_main(["fig4", "--scale", "small", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "joint" in out.lower()

    def test_unknown_id(self, capsys):
        assert runner_main(["nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_import_leaves_out_of_core_layer_unloaded(self):
        # The experiments read in-memory datasets only; the shard and
        # map-reduce layer serves the streaming path and must not creep
        # back into the runner's import graph.
        code = (
            "import sys, repro.experiments.runner; "
            "print(sorted(m for m in ('repro.core.shard', "
            "'repro.core.mapreduce') if m in sys.modules))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestDatasets:
    def test_unknown_scale_rejected(self):
        from repro.experiments.datasets import simulation_dataset, workload_dataset

        with pytest.raises(KeyError, match="available"):
            workload_dataset("huge")
        with pytest.raises(KeyError, match="available"):
            simulation_dataset("huge")

    def test_grid_system_names_cover_presets(self):
        from repro.experiments.datasets import grid_system_names
        from repro.synth.presets import GRID_PRESETS

        names = grid_system_names()
        assert set(names) == set(GRID_PRESETS)

    def test_memoization_returns_same_object(self):
        from repro.experiments.datasets import workload_dataset

        assert workload_dataset("small", 0) is workload_dataset("small", 0)


class TestDatasetCacheEntries:
    """Derived views are rebuilt on load, never stored in the disk cache."""

    def test_derived_views_are_not_stored_and_rebuild_identically(self, tmp_path):
        import pickle

        from repro.core import diskcache
        from repro.experiments import datasets

        try:
            datasets.configure_cache(tmp_path)
            built = {
                "WorkloadDataset": datasets.workload_dataset("small", 0),
                "SimulationDataset": datasets.simulation_dataset("small", 0),
            }
            stored = {}
            for key in datasets.dataset_cache().entries():
                with open(tmp_path / key[:2] / key / "skeleton.pkl", "rb") as fh:
                    skeleton = pickle.load(fh)
                names = [name for name, _ in skeleton.tree.state]
                stored[skeleton.tree.cls.__name__] = (names, skeleton.arrays)
            assert set(stored["WorkloadDataset"][0]) == {
                "horizon", "google_jobs", "grid_jobs_native", "google_tasks",
            }
            assert set(stored["SimulationDataset"][0]) == {"result", "config"}
            # The payload holds the arrays of the stored fields and no more.
            for cls, (names, layout) in stored.items():
                arrays = []
                diskcache._encode([getattr(built[cls], n) for n in names], arrays)
                assert len(layout) == len(arrays)

            datasets.configure_cache(tmp_path)  # fresh memo, same disk
            workload = datasets.workload_dataset("small", 0)
            simulation = datasets.simulation_dataset("small", 0)
            assert datasets.dataset_stats()["disk_hits"] == 2
            datasets.configure_cache(None)
            rebuilt_workload = datasets.workload_dataset("small", 0)
            rebuilt_simulation = datasets.simulation_dataset("small", 0)
        finally:
            datasets.configure_cache(None)
            datasets.reset_dataset_stats()

        assert workload.grid_jobs.keys() == rebuilt_workload.grid_jobs.keys()
        for name, table in rebuilt_workload.grid_jobs.items():
            got = workload.grid_jobs[name]
            assert got.column_names == table.column_names
            for column in table.column_names:
                assert got[column].dtype == table[column].dtype
                np.testing.assert_array_equal(got[column], table[column])
        assert simulation.series.keys() == rebuilt_simulation.series.keys()
        for machine, series in rebuilt_simulation.series.items():
            got = simulation.series[machine]
            for f in dataclasses.fields(series):
                want = getattr(series, f.name)
                if isinstance(want, np.ndarray):
                    assert getattr(got, f.name).dtype == want.dtype
                    np.testing.assert_array_equal(getattr(got, f.name), want)
                else:
                    assert getattr(got, f.name) == want
