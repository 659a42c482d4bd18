"""Map-reduce over shards: order contract and merge exactness.

The load-bearing property is byte-identity: for every accumulator the
experiments use, folding per-shard partials must reproduce the batch
computation bit for bit, for any shard size and for the spawn pool.
"""

import multiprocessing
import os
import signal
from dataclasses import dataclass

from pathlib import Path

import numpy as np
import pytest

from repro.core.ecdf import ecdf
from repro.core.fairness import HourlyCountsAccumulator, hourly_counts
from repro.core.kernels import (
    ECDFAccumulator,
    MassCountAccumulator,
    merge_run_lengths,
    run_length_encode,
)
from repro.core.mapreduce import (
    MapReduceConfig,
    MapReduceError,
    map_reduce,
    map_shards,
    merge_accumulators,
)
from repro.core.masscount import mass_count
from repro.core.shard import ShardedTable, ShardIntegrityError
from repro.core.timing import Timings
from repro.core.segments import LevelRunAccumulator, level_durations
from repro.core.shard import write_table
from repro.core.table import Table
from repro.synth import sharded as synth_sharded
from repro.synth.google_model import GoogleConfig
from repro.synth.presets import DAY

SHARD_SIZES = (1, 3, 7, 50, 1000)


def _sample(n=200, seed=3):
    rng = np.random.default_rng(seed)
    # Repeated values exercise the ECDF's distinct-value folding.
    return np.round(rng.exponential(50.0, n), 1)


def _sum_kernel(shard):
    return float(np.sum(np.asarray(shard["x"])))


def _ecdf_kernel(shard):
    acc = ECDFAccumulator()
    acc.add(np.asarray(shard["x"]))
    return acc


def _mass_kernel(shard):
    acc = MassCountAccumulator()
    acc.add(np.asarray(shard["x"]))
    return acc


def _hourly_kernel(shard, horizon):
    acc = HourlyCountsAccumulator(horizon)
    acc.add(np.asarray(shard["x"]))
    return acc


def _runs_kernel(shard):
    return run_length_encode(np.asarray(shard["x"]))


class TestMapShards:
    def test_results_in_shard_order(self, tmp_path):
        values = _sample(40)
        sharded = write_table(Table({"x": values}), tmp_path / "t", 7)
        got = map_shards(sharded, _sum_kernel)
        want = [
            float(np.sum(values[i : i + 7])) for i in range(0, 40, 7)
        ]
        assert got == want

    def test_zero_shards(self, tmp_path):
        sharded = write_table(Table({"x": np.empty(0)}), tmp_path / "t", 4)
        assert map_shards(sharded, _sum_kernel) == []
        assert map_reduce(sharded, _sum_kernel, merge=lambda a, b: a) is None


class TestMergeExactness:
    """Per-shard fold == batch, bit for bit, for every shard size."""

    def test_ecdf(self, tmp_path):
        values = _sample()
        want = ecdf(values)
        for rows in SHARD_SIZES:
            sharded = write_table(
                Table({"x": values}), tmp_path / f"e{rows}", rows
            )
            got = map_reduce(sharded, _ecdf_kernel).finalize()
            np.testing.assert_array_equal(got.values, want.values)
            np.testing.assert_array_equal(got.probabilities, want.probabilities)

    def test_mass_count(self, tmp_path):
        values = _sample()
        want = mass_count(values)
        for rows in SHARD_SIZES:
            sharded = write_table(
                Table({"x": values}), tmp_path / f"m{rows}", rows
            )
            acc = map_reduce(sharded, _mass_kernel)
            np.testing.assert_array_equal(acc.merged(), values)
            got = acc.finalize()
            assert got.mm_distance == want.mm_distance
            assert got.joint_ratio == want.joint_ratio

    def test_hourly_counts(self, tmp_path):
        times = np.sort(_sample(300, seed=5)) * 60.0
        horizon = float(times.max()) + 1.0
        want = hourly_counts(times, horizon)
        for rows in SHARD_SIZES:
            sharded = write_table(
                Table({"x": times}), tmp_path / f"h{rows}", rows
            )
            acc = map_reduce(sharded, _hourly_kernel, args=(horizon,))
            np.testing.assert_array_equal(acc.counts(), want)

    def test_run_lengths(self, tmp_path):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 3, 120, dtype=np.int64)
        want = run_length_encode(codes)
        for rows in SHARD_SIZES:
            sharded = write_table(
                Table({"x": codes}), tmp_path / f"r{rows}", rows
            )
            got = map_reduce(sharded, _runs_kernel, merge=merge_run_lengths)
            np.testing.assert_array_equal(got.starts, want.starts)
            np.testing.assert_array_equal(got.lengths, want.lengths)
            np.testing.assert_array_equal(got.values, want.values)


class TestLevelRunAccumulator:
    def test_matches_batch_for_any_chunking(self):
        rng = np.random.default_rng(7)
        period = 300.0
        values = np.clip(rng.normal(0.5, 0.3, 240), 0.0, 1.0)
        times = np.arange(values.size) * period
        want = level_durations(times, values)
        for sizes in [(240,), (1,) * 240, (37, 100, 103), (239, 1)]:
            acc = LevelRunAccumulator(tail=period)
            start = 0
            for size in sizes:
                acc.add(times[start : start + size], values[start : start + size])
                start += size
            got = acc.finalize()
            assert got.keys() == want.keys()
            for lvl in want:
                np.testing.assert_array_equal(got[lvl], want[lvl])

    def test_merge_matches_single_accumulator(self):
        rng = np.random.default_rng(9)
        period = 300.0
        values = np.clip(rng.normal(0.5, 0.3, 90), 0.0, 1.0)
        times = np.arange(values.size) * period
        want = level_durations(times, values)
        parts = []
        for lo, hi in ((0, 30), (30, 31), (31, 90)):
            acc = LevelRunAccumulator(tail=period)
            acc.add(times[lo:hi], values[lo:hi])
            parts.append(acc)
        merged = merge_accumulators(
            merge_accumulators(parts[0], parts[1]), parts[2]
        )
        got = merged.finalize()
        for lvl in want:
            np.testing.assert_array_equal(got[lvl], want[lvl])

    def test_rejects_out_of_order_chunks(self):
        acc = LevelRunAccumulator(tail=300.0)
        acc.add(np.array([0.0, 300.0]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            acc.add(np.array([150.0]), np.array([0.1]))


class TestSpawnPool:
    """jobs > 1 must be byte-identical to the serial fold."""

    def test_map_shards_parallel_order(self, tmp_path):
        values = _sample(60)
        sharded = write_table(Table({"x": values}), tmp_path / "t", 9)
        assert map_shards(sharded, _sum_kernel, jobs=2) == map_shards(
            sharded, _sum_kernel
        )

    def test_map_reduce_parallel_identical(self, tmp_path):
        values = _sample(150, seed=13)
        sharded = write_table(Table({"x": values}), tmp_path / "t", 11)
        serial = map_reduce(sharded, _ecdf_kernel).finalize()
        parallel = map_reduce(sharded, _ecdf_kernel, jobs=2).finalize()
        np.testing.assert_array_equal(serial.values, parallel.values)
        np.testing.assert_array_equal(
            serial.probabilities, parallel.probabilities
        )
        acc_s = map_reduce(sharded, _mass_kernel)
        acc_p = map_reduce(sharded, _mass_kernel, jobs=3)
        np.testing.assert_array_equal(acc_s.merged(), acc_p.merged())


# -- supervision: injectors and kernels must be picklable (spawn) ----------


@dataclass(frozen=True)
class _KillOnce:
    """SIGKILL the worker running the given block on one attempt."""

    block: int
    attempt: int = 1

    def __call__(self, root, block, attempt):
        if block == self.block and attempt == self.attempt:
            os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class _HangOnce:
    """Stall one attempt of the given block far past the block timeout."""

    block: int
    seconds: float = 60.0
    attempt: int = 1

    def __call__(self, root, block, attempt):
        if block == self.block and attempt == self.attempt:
            import time

            time.sleep(self.seconds)


@dataclass(frozen=True)
class _CorruptOnce:
    """Flip a data byte of one shard before one attempt of a block reads it.

    Structural checks still pass; the worker's digest check fails, so
    the parent sees an integrity failure and must heal the table.
    """

    block: int
    shard: int
    attempt: int = 1

    def __call__(self, root, block, attempt):
        if block == self.block and attempt == self.attempt:
            victim = min((Path(root) / f"shard-{self.shard:05d}").glob("*.npy"))
            data = bytearray(victim.read_bytes())
            data[-1] ^= 0xFF
            victim.write_bytes(bytes(data))


@dataclass(frozen=True)
class _Chain:
    """Run several injectors in order (each fires on its own attempt)."""

    injectors: tuple

    def __call__(self, root, block, attempt):
        for inject in self.injectors:
            inject(root, block, attempt)


@dataclass(frozen=True)
class _AlwaysKill:
    """Every worker dies: forces degradation to the inline path."""

    def __call__(self, root, block, attempt):
        os.kill(os.getpid(), signal.SIGKILL)


def _boom_kernel(shard):
    raise ValueError("boom")


_FAST = dict(backoff_base=0.001, backoff_cap=0.01)


class TestSupervision:
    """Crash/timeout/error/corruption handling in the spawn pool."""

    def _sharded(self, tmp_path, n=60, rows=5, name="t"):
        values = _sample(n, seed=17)
        return values, write_table(
            Table({"x": values}), tmp_path / name, rows
        )

    def test_killed_worker_respawned_and_block_retried(self, tmp_path):
        values, sharded = self._sharded(tmp_path)
        timings = Timings()
        got = map_shards(
            sharded,
            _sum_kernel,
            jobs=2,
            config=MapReduceConfig(**_FAST),
            inject=_KillOnce(block=1),
            timings=timings,
        )
        assert got == map_shards(sharded, _sum_kernel)
        assert timings.counters["mapreduce_crashes"] >= 1
        assert timings.counters["mapreduce_retries"] >= 1
        assert timings.counters["mapreduce_respawns"] >= 1

    def test_hung_block_killed_and_retried(self, tmp_path):
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        timings = Timings()
        got = map_shards(
            sharded,
            _sum_kernel,
            jobs=2,
            config=MapReduceConfig(timeout=1.0, poll_interval=0.02, **_FAST),
            inject=_HangOnce(block=0),
            timings=timings,
        )
        assert got == map_shards(sharded, _sum_kernel)
        assert timings.counters["mapreduce_block_timeouts"] >= 1

    def test_kernel_exception_is_permanent(self, tmp_path):
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        with pytest.raises(MapReduceError, match="boom"):
            map_shards(
                sharded,
                _boom_kernel,
                jobs=2,
                config=MapReduceConfig(**_FAST),
            )

    def test_retries_exhausted_falls_back_inline(self, tmp_path):
        # A block whose worker dies on every attempt must still finish
        # (inline in the parent), not loop or raise.
        values, sharded = self._sharded(tmp_path, n=30, rows=5)
        timings = Timings()
        got = map_shards(
            sharded,
            _sum_kernel,
            jobs=2,
            config=MapReduceConfig(retries=1, degrade_after=100, **_FAST),
            inject=_AlwaysKill(),
            timings=timings,
        )
        assert got == map_shards(sharded, _sum_kernel)
        assert timings.counters["mapreduce_inline"] >= 1

    def test_circuit_breaker_degrades_pool(self, tmp_path):
        # Enough transient failures trip the breaker: the remaining
        # blocks run inline in index order and the fold stays exact.
        values, sharded = self._sharded(tmp_path, n=60, rows=4)
        timings = Timings()
        serial = map_reduce(sharded, _ecdf_kernel).finalize()
        got = map_reduce(
            sharded,
            _ecdf_kernel,
            jobs=3,
            config=MapReduceConfig(retries=0, degrade_after=1, **_FAST),
            inject=_AlwaysKill(),
            timings=timings,
        ).finalize()
        np.testing.assert_array_equal(got.values, serial.values)
        np.testing.assert_array_equal(got.probabilities, serial.probabilities)
        assert timings.counters["mapreduce_inline"] >= 1

    def test_corrupt_shard_heals_and_result_is_clean(self, tmp_path):
        values, sharded = self._sharded(tmp_path, n=40, rows=5)
        # Flip a data byte: structural checks pass, the digest fails in
        # the worker, and the parent's heal callback swaps in a rebuilt
        # byte-identical table.
        victim = sharded.root / "shard-00003" / "x.npy"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))

        healed_roots = []

        def heal(root, message):
            rebuilt = write_table(
                Table({"x": values}), tmp_path / f"heal{len(healed_roots)}", 5
            )
            healed_roots.append(root)
            return str(rebuilt.root)

        clean = write_table(Table({"x": values}), tmp_path / "ref", 5)
        want = map_shards(clean, _sum_kernel)
        for jobs in (1, 2):
            got = map_shards(
                ShardedTable.open(sharded.root, verify="lazy"),
                _sum_kernel,
                jobs=jobs,
                config=MapReduceConfig(**_FAST),
                heal=heal,
            )
            assert got == want, jobs
        assert len(healed_roots) == 2

    def test_corruption_without_heal_raises_typed_error(self, tmp_path):
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        victim = sharded.root / "shard-00001" / "x.npy"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        table = ShardedTable.open(sharded.root, verify="lazy")
        for jobs in (1, 2):
            with pytest.raises(ShardIntegrityError):
                map_shards(
                    table,
                    _sum_kernel,
                    jobs=jobs,
                    config=MapReduceConfig(**_FAST),
                )

    def test_heal_attempts_are_capped(self, tmp_path):
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        victim = sharded.root / "shard-00001" / "x.npy"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        calls = []

        def bad_heal(root, message):
            calls.append(root)
            return root  # "healed" to the same corrupt table

        with pytest.raises(ShardIntegrityError):
            map_shards(
                ShardedTable.open(sharded.root, verify="lazy"),
                _sum_kernel,
                jobs=2,
                config=MapReduceConfig(max_heals=2, **_FAST),
                heal=bad_heal,
            )
        assert len(calls) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MapReduceConfig(timeout=0.0)
        with pytest.raises(ValueError):
            MapReduceConfig(retries=-1)
        with pytest.raises(ValueError):
            MapReduceConfig(verify="paranoid")


# -- chaos gate on the streaming path (synth.sharded + map_reduce) ----------

#: A small two-day task stream spilled in ~10 shards over several
#: generator chunks — the same path the 10x-paper run takes, scaled down.
_STREAM = dict(
    horizon=2 * DAY,
    seed=5,
    config=GoogleConfig(busy_window=None),
    tasks_per_hour=200.0,
    shard_rows=1000,
    columns=("submit_time", "duration"),
    chunk_tasks=1500,
)
#: Shard whose first column is on disk when the spilling child dies.
_KILL_SHARD = 3


class _KillingWriter(synth_sharded.ShardWriter):
    """ShardWriter that SIGKILLs its process mid-shard (torn spill)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, on_event=self._die, **kwargs)

    @staticmethod
    def _die(event, index, resumed_shards):
        if event == "column-written" and index == _KILL_SHARD:
            os.kill(os.getpid(), signal.SIGKILL)


def _doomed_stream_spill(dest):
    """Spawn-process entry: stream-spill until killed mid-shard."""
    synth_sharded.ShardWriter = _KillingWriter
    synth_sharded.shard_task_requests(dest, resume=True, **_STREAM)


def _duration_ecdf_kernel(shard):
    acc = ECDFAccumulator()
    acc.add(np.asarray(shard["duration"]))
    return acc


class TestStreamingChaos:
    """Kill, corrupt and hang the streaming path; the fold must not change.

    A spilling process dies by SIGKILL mid-shard and the spill resumes
    from its journal. The resumed table is then folded by the spawn pool
    while block 0 is killed, has a shard corrupted on disk, and hangs
    past its timeout, on successive attempts. The result must equal a
    clean serial fold, and every recovery must be counted.
    """

    def test_killed_spill_resumes_and_chaotic_fold_heals(
        self, tmp_path, monkeypatch
    ):
        dest = tmp_path / "trace"
        proc = multiprocessing.get_context("spawn").Process(
            target=_doomed_stream_spill, args=(dest,)
        )
        proc.start()
        proc.join(120)
        assert proc.exitcode == -signal.SIGKILL
        assert not dest.exists()

        writers = []

        class _RecordingWriter(synth_sharded.ShardWriter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                writers.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(synth_sharded, "ShardWriter", _RecordingWriter)
            table = synth_sharded.shard_task_requests(
                dest, resume=True, **_STREAM
            )
        assert writers[0].resumed_shards >= 1
        assert table.num_shards >= 8

        healed = []

        def heal(root, message):
            fresh = synth_sharded.shard_task_requests(
                tmp_path / f"heal{len(healed)}", **_STREAM
            )
            healed.append(root)
            return str(fresh.root)

        timings = Timings()
        got = map_reduce(
            table,
            _duration_ecdf_kernel,
            jobs=2,
            config=MapReduceConfig(
                timeout=5.0,
                retries=4,
                degrade_after=10,
                straggler_factor=None,
                poll_interval=0.02,
                **_FAST,
            ),
            inject=_Chain(
                (
                    _KillOnce(block=0, attempt=1),
                    _CorruptOnce(block=0, shard=0, attempt=2),
                    _HangOnce(block=0, attempt=3),
                )
            ),
            heal=heal,
            timings=timings,
        ).finalize()

        clean = synth_sharded.shard_task_requests(tmp_path / "clean", **_STREAM)
        want = map_reduce(clean, _duration_ecdf_kernel).finalize()
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.probabilities, want.probabilities)
        assert timings.counters["mapreduce_crashes"] >= 1
        assert timings.counters["mapreduce_retries"] >= 1
        assert timings.counters["mapreduce_block_timeouts"] >= 1
        assert healed
