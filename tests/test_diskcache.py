"""Unit tests for the content-addressed dataset disk cache."""

import dataclasses
import tempfile
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import diskcache
from repro.core.diskcache import (
    MISS,
    CacheCorruptionError,
    DiskCache,
    cache_key,
    fingerprint,
)
from repro.core.table import Table


@dataclasses.dataclass(frozen=True)
class Payload:
    """Stand-in for SimResult-style containers: arrays + table + meta."""

    name: str
    arr: np.ndarray
    table: Table
    nested: dict


def _payload(seed: int = 0) -> Payload:
    rng = np.random.default_rng(seed)
    return Payload(
        name=f"p{seed}",
        arr=rng.normal(size=100),
        table=Table(
            {
                "a": rng.integers(0, 10, size=50),
                "b": rng.normal(size=50),
            }
        ),
        nested={"k": (1, 2.5, rng.normal(size=7)), "n": None},
    )


class TestFingerprint:
    def test_stable_for_equal_inputs(self):
        assert fingerprint({"b": 2, "a": 1.5}) == fingerprint({"a": 1.5, "b": 2})

    def test_sensitive_to_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_dataclass_field_changes_fingerprint(self):
        a = _payload(0)
        b = dataclasses.replace(a, name="other")
        assert fingerprint(a) != fingerprint(b)

    def test_plain_object_hashed_by_state_not_address(self):
        class Dist:
            def __init__(self, mu):
                self.mu = mu

        assert fingerprint(Dist(1.0)) == fingerprint(Dist(1.0))
        assert fingerprint(Dist(1.0)) != fingerprint(Dist(2.0))

    def test_array_contents_matter(self):
        assert fingerprint(np.arange(4)) != fingerprint(np.arange(1, 5))


class TestCacheKey:
    def test_component_sensitivity(self):
        base = cache_key(kind="workload", scale="small", seed=0, version=1)
        assert base == cache_key(kind="workload", scale="small", seed=0, version=1)
        assert base != cache_key(kind="workload", scale="small", seed=1, version=1)
        assert base != cache_key(kind="workload", scale="paper", seed=0, version=1)
        assert base != cache_key(kind="workload", scale="small", seed=0, version=2)
        assert base != cache_key(kind="simulation", scale="small", seed=0, version=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cache_key()


class TestRoundTrip:
    def test_arrays_bit_identical(self, tmp_path):
        cache = DiskCache(tmp_path)
        obj = _payload(3)
        cache.put("k" * 64, obj)
        loaded = cache.get("k" * 64)
        assert loaded is not MISS
        assert loaded.name == obj.name
        np.testing.assert_array_equal(loaded.arr, obj.arr)
        assert loaded.arr.dtype == obj.arr.dtype
        assert loaded.table == obj.table
        for name in obj.table.column_names:
            assert loaded.table[name].dtype == obj.table[name].dtype
        np.testing.assert_array_equal(
            loaded.nested["k"][2], obj.nested["k"][2]
        )
        assert loaded.nested["k"][:2] == (1, 2.5)
        assert loaded.nested["n"] is None

    def test_tuple_and_int_keyed_dicts_survive(self, tmp_path):
        cache = DiskCache(tmp_path)
        obj = {1: np.arange(3), 2: ("x", [np.float64(1.5)])}
        cache.put("a" * 64, obj)
        loaded = cache.get("a" * 64)
        assert set(loaded) == {1, 2}
        np.testing.assert_array_equal(loaded[1], np.arange(3))
        assert loaded[2][0] == "x"

    def test_miss_on_absent_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("b" * 64) is MISS
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_contains_and_entries(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "c" * 64
        assert key not in cache
        cache.put(key, {"x": 1})
        assert key in cache
        assert cache.entries() == [key]
        cache.clear()
        assert cache.entries() == []

    def test_hit_and_put_counters(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("d" * 64, [1, 2, 3])
        assert cache.stats.puts == 1
        assert cache.get("d" * 64) == [1, 2, 3]
        assert cache.stats.hits == 1


class TestCorruption:
    def test_truncated_payload_recovers_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "e" * 64
        cache.put(key, _payload(1))
        payload = tmp_path / key[:2] / key / "arrays.zblk"
        payload.write_bytes(payload.read_bytes()[:20])
        assert cache.get(key) is MISS
        assert cache.stats.errors == 1
        # The broken entry is gone; a re-put works again.
        assert key not in cache
        cache.put(key, _payload(1))
        assert cache.get(key) is not MISS

    def test_garbage_skeleton_recovers_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "f" * 64
        cache.put(key, {"v": np.arange(5)})
        (tmp_path / key[:2] / key / "skeleton.pkl").write_bytes(b"not a pickle")
        assert cache.get(key) is MISS
        assert key not in cache


_DTYPES = [
    np.dtype(code)
    for code in (
        "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f4", "f8", "?",
        ">i4", ">u8", ">f8",
    )
] + [np.dtype([("a", "<i2"), ("b", ">f8"), ("c", "?")])]


@st.composite
def _stored_array(draw):
    """Any codec input: 0-d, empty, C, Fortran or non-contiguous."""
    dtype = draw(st.sampled_from(_DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9))
    arr = draw(hnp.arrays(dtype, shape))
    order = draw(st.sampled_from(["C", "F", "strided"]))
    if order == "F":
        return np.asfortranarray(arr)
    if order == "strided" and arr.ndim:
        return arr[..., ::2]
    return arr


def _entry_file(root, key, name):
    return root / key[:2] / key / name


class TestBlockCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_stored_array(), min_size=1, max_size=3))
    def test_round_trip_is_exact(self, arrays):
        # Tiny blocks so most arrays span several of them.
        with tempfile.TemporaryDirectory() as root, mock.patch.object(
            diskcache, "BLOCK_BYTES", 16
        ):
            cache = DiskCache(root)
            cache.put("a" * 64, arrays)
            loaded = cache.get("a" * 64)
        assert loaded is not MISS and len(loaded) == len(arrays)
        for got, want in zip(loaded, arrays):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # bit-exact, NaNs too
            assert got.flags.writeable

    def test_multi_block_array_at_real_block_size(self, tmp_path):
        arr = np.random.default_rng(0).integers(0, 1000, size=(600_000, 1))
        cache = DiskCache(tmp_path)
        cache.put("b" * 64, {"x": arr, "y": arr[::3, 0]})
        loaded = cache.get("b" * 64)
        np.testing.assert_array_equal(loaded["x"], arr)
        np.testing.assert_array_equal(loaded["y"], arr[::3, 0])
        assert arr.nbytes > 4 * diskcache.BLOCK_BYTES

    def test_entry_reads_back_after_the_block_size_changes(self, tmp_path):
        arr = np.arange(100_000)
        cache = DiskCache(tmp_path)
        with mock.patch.object(diskcache, "BLOCK_BYTES", 4096):
            cache.put("f" * 64, arr)
        np.testing.assert_array_equal(cache.get("f" * 64), arr)
        assert cache.stats.errors == 0

    def test_payload_bytes_do_not_depend_on_worker_count(self, tmp_path):
        rng = np.random.default_rng(1)
        obj = {
            "ints": rng.integers(0, 500, size=700_000),
            "floats": rng.normal(size=300_000).astype(">f8"),
        }
        written = []
        for workers in (1, 3):
            root = tmp_path / f"w{workers}"
            with mock.patch.object(diskcache, "_WORKERS", workers):
                DiskCache(root).put("c" * 64, obj)
            written.append(
                [
                    _entry_file(root, "c" * 64, name).read_bytes()
                    for name in ("arrays.zblk", "skeleton.pkl")
                ]
            )
        assert obj["ints"].nbytes > 4 * diskcache.BLOCK_BYTES
        assert written[0] == written[1]


def _power_loss(data: bytes, kind: str, rng: np.random.Generator) -> bytes:
    """The payload after a torn write: truncated, zero-filled or bit-rotted."""
    if kind == "truncate":
        return data[: int(rng.integers(0, len(data)))]
    if kind == "zero-tail":
        last = max(i for i, b in enumerate(data[-4096:], len(data) - 4096) if b)
        start = int(rng.integers(0, last + 1))
        return data[:start] + bytes(len(data) - start)
    pos = int(rng.integers(0, len(data)))
    return data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1 :]


class TestPowerLoss:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["truncate", "zero-tail", "flip"])
    def test_damaged_payload_is_quarantined_then_rebuilt(self, tmp_path, kind, seed):
        rng = np.random.default_rng(seed)
        obj = {"x": rng.integers(0, 100, size=330_000), "t": _payload(seed)}
        key = "d" * 64
        cache = DiskCache(tmp_path)
        cache.put(key, obj)
        payload = _entry_file(tmp_path, key, "arrays.zblk")
        data = payload.read_bytes()
        damaged = _power_loss(data, kind, rng)
        assert damaged != data
        payload.write_bytes(damaged)
        assert cache.get(key) is MISS
        assert cache.stats.errors == 1
        assert cache.quarantined_entries() == [key]
        assert key not in cache
        cache.put(key, obj)
        loaded = cache.get(key)
        np.testing.assert_array_equal(loaded["x"], obj["x"])
        assert loaded["t"].table == obj["t"].table


class TestIntegrityChecks:
    def test_block_must_inflate_to_exactly_its_raw_length(self):
        block = zlib.compress(b"abcd")
        dest = np.empty(4, np.uint8)
        diskcache._inflate_into((block, dest))
        assert dest.tobytes() == b"abcd"
        for size in (3, 5):
            with pytest.raises(CacheCorruptionError):
                diskcache._inflate_into((block, np.empty(size, np.uint8)))
        with pytest.raises(CacheCorruptionError):  # stream cut short
            diskcache._inflate_into((block[:-2], np.empty(4, np.uint8)))

    def test_payload_longer_than_its_layout_is_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "e" * 64
        cache.put(key, {"x": np.arange(1000)})
        payload = _entry_file(tmp_path, key, "arrays.zblk")
        payload.write_bytes(payload.read_bytes() + b"\0")
        assert cache.get(key) is MISS
        assert cache.quarantined_entries() == [key]


class TestQuarantine:
    def test_corrupt_entry_parked_for_inspection(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "a" * 64
        cache.put(key, _payload(2))
        (tmp_path / key[:2] / key / "skeleton.pkl").write_bytes(b"garbage")
        assert cache.get(key) is MISS
        assert cache.stats.quarantined == 1
        assert cache.stats.errors == 1
        assert cache.quarantined_entries() == [key]
        # The quarantined copy keeps the corrupt bytes for post-mortems.
        parked = cache.quarantine_dir() / key / "skeleton.pkl"
        assert parked.read_bytes() == b"garbage"
        # The live cache self-heals: re-put and read back normally.
        cache.put(key, _payload(2))
        assert cache.get(key) is not MISS

    def test_quarantine_is_pruned(self, tmp_path):
        import os

        cache = DiskCache(tmp_path)
        keys = [format(i, "x").rjust(64, "0") for i in range(12)]
        for i, key in enumerate(keys):
            cache.put(key, {"x": 1})
            (tmp_path / key[:2] / key / "skeleton.pkl").write_bytes(b"junk")
            assert cache.get(key) is MISS
            os.utime(cache.quarantine_dir() / key, (1000 + i, 1000 + i))
        parked = cache.quarantined_entries()
        assert len(parked) <= 8
        assert keys[-1] in parked  # newest kept
        assert keys[0] not in parked  # oldest pruned
        assert cache.stats.quarantined == 12

    def test_concurrently_evicted_entry_is_plain_miss(
        self, tmp_path, monkeypatch
    ):
        # Another process may evict an entry between our existence check
        # and the read; that must read as a miss, not as corruption.
        cache = DiskCache(tmp_path)
        key = "b" * 64
        cache.put(key, {"x": 1})

        def vanish(fh):
            raise FileNotFoundError(getattr(fh, "name", "skeleton.pkl"))

        monkeypatch.setattr("repro.core.diskcache.pickle.load", vanish)
        assert cache.get(key) is MISS
        assert cache.stats.misses == 1
        assert cache.stats.errors == 0
        assert cache.stats.quarantined == 0


def _race_worker(root, worker: int) -> None:
    """Hammer one shared cache with puts and gets under tight eviction."""
    cache = DiskCache(root, max_entries=2, max_bytes=None)
    keys = [c * 64 for c in "abcd"]
    for round_ in range(30):
        key = keys[(worker + round_) % len(keys)]
        cache.put(key, {"x": np.arange(200)})
        for probe in keys:
            value = cache.get(probe)
            assert value is MISS or value["x"][0] == 0


class TestEvictionRace:
    def test_two_processes_put_get_evict_without_errors(self, tmp_path):
        # Regression test for FileNotFoundError escaping get() when a
        # concurrent process's LRU eviction removes the entry mid-read.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_race_worker, args=(tmp_path, i))
            for i in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0]


class TestEviction:
    def test_entry_count_budget(self, tmp_path):
        import os

        cache = DiskCache(tmp_path, max_entries=2, max_bytes=None)
        keys = [c * 64 for c in "abc"]
        for i, key in enumerate(keys):
            cache.put(key, {"i": np.arange(10)})
            # Distinct mtimes so LRU order is unambiguous on coarse
            # filesystem timestamp resolutions.
            os.utime(tmp_path / key[:2] / key, (1000 + i, 1000 + i))
        cache._evict()
        assert cache.stats.evictions >= 1
        assert len(cache.entries()) == 2
        assert keys[0] not in cache  # oldest evicted
        assert keys[2] in cache  # newest kept

    def test_byte_budget(self, tmp_path):
        import os

        cache = DiskCache(tmp_path, max_entries=None, max_bytes=1)
        for i, c in enumerate("ab"):
            key = c * 64
            cache.put(key, {"i": np.arange(100)})
            os.utime(tmp_path / key[:2] / key, (1000 + i, 1000 + i))
        cache._evict()
        # Every entry exceeds one byte; only the newest survives a put.
        assert len(cache.entries()) <= 1

    def test_index_rescans_only_when_a_budget_is_exceeded(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=4, max_bytes=None)
        scans = []
        scan = cache._scan

        def counted_scan():
            scans.append(1)
            return scan()

        cache._scan = counted_scan
        for c in "abcd":
            cache.put(c * 64, {"x": np.arange(10)})
        assert len(scans) == 1  # the seeding scan
        cache.put("e" * 64, {"x": np.arange(10)})
        assert len(scans) == 2
        assert len(cache.entries()) == 4 and cache.stats.evictions == 1

    def test_no_budget_keeps_everything(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=None, max_bytes=None)
        for c in "abcdef":
            cache.put(c * 64, {"x": 1})
        assert len(cache.entries()) == 6
        assert cache.stats.evictions == 0


class TestDirectoryEntries:
    """put_path/get_path and recursive byte accounting."""

    def _tree(self, tmp_path, name="src", nbytes=1000):
        src = tmp_path / name
        (src / "nested").mkdir(parents=True)
        (src / "a.npy").write_bytes(b"x" * nbytes)
        (src / "nested" / "b.npy").write_bytes(b"y" * nbytes)
        return src

    def test_round_trip_copy(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=None, max_entries=None)
        src = self._tree(tmp_path)
        key = "d" * 64
        cache.put_path(key, src)
        assert src.is_dir()  # copy leaves the source alone
        payload = cache.get_path(key)
        assert payload is not MISS
        assert (payload / "a.npy").read_bytes() == b"x" * 1000
        assert (payload / "nested" / "b.npy").read_bytes() == b"y" * 1000

    def test_move_consumes_source(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=None, max_entries=None)
        src = self._tree(tmp_path)
        cache.put_path("e" * 64, src, move=True)
        assert not src.exists()
        assert cache.get_path("e" * 64) is not MISS

    def test_miss_on_absent_key(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        assert cache.get_path("f" * 64) is MISS
        assert cache.stats.misses == 1

    def test_accounting_counts_every_nested_file(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=None, max_entries=None)
        src = self._tree(tmp_path, nbytes=5000)
        cache.put_path("a" * 64, src, move=True)
        # Both payload files plus skeleton/meta must be visible to the
        # byte budget; the old iterdir-level accounting saw none of the
        # nested payload bytes.
        assert cache.total_bytes() >= 10_000

    def test_byte_budget_evicts_directory_entries(self, tmp_path):
        import os

        cache = DiskCache(tmp_path / "cache", max_bytes=1, max_entries=None)
        for i, c in enumerate("ab"):
            key = c * 64
            cache.put_path(key, self._tree(tmp_path, name=f"src{i}"), move=True)
            os.utime(tmp_path / "cache" / key[:2] / key, (1000 + i, 1000 + i))
        cache._evict()
        assert len(cache.entries()) <= 1

    def test_object_get_on_dir_entry_is_quarantined_miss(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=None, max_entries=None)
        cache.put_path("b" * 64, self._tree(tmp_path), move=True)
        # get_path on an entry whose payload dir was destroyed recovers
        # as a miss instead of handing out a broken path.
        payload = cache.get_path("b" * 64)
        import shutil as _shutil

        _shutil.rmtree(payload)
        assert cache.get_path("b" * 64) is MISS
        assert cache.stats.errors == 1
