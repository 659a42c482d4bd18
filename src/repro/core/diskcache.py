"""Content-addressed on-disk cache for derived dataset artifacts.

Every experiment run regenerates the same synthetic traces and
simulated months from scratch; at paper scale that costs tens of
seconds per process. Because every builder is a pure function of
``(scale, seed, config)`` — the determinism the REP101/REP501 lint
rules guarantee — the results can be cached on disk under a key
derived from exactly those inputs plus a code/schema version, and a
warm cache is always safe to reuse.

Storage layout (one directory per entry, content-addressed)::

    <root>/<key[:2]>/<key>/
        skeleton.pkl   object tree with arrays replaced by references,
                       plus each array's layout in the payload
        arrays.zblk    the referenced arrays as zlib block streams
        meta.json      key + payload size, for inspection/eviction

The payload is every array's C-order bytes, one array after the other,
cut into fixed :data:`BLOCK_BYTES` blocks; each block is an independent
level-1 zlib stream, so blocks compress and decompress in parallel on a
short-lived thread pool (zlib releases the GIL) and the file's bytes do
not depend on the worker count. The layout pickled with the skeleton
records, per array, its dtype descriptor, shape, raw byte count, block
size and the compressed length of every block. Reads check the file
length against the layout, and each block's raw length and zlib
adler32 checksum.

Entries are written into a temp directory and renamed into place, so
readers never observe a half-written entry. Reads refresh the entry's
mtime; eviction drops the least-recently-used entries once the cache
exceeds its entry or byte budget. A corrupted entry (truncated or
zero-filled payload, a flipped byte, unpicklable skeleton) is moved
into a ``.quarantine/`` directory — kept for post-mortem inspection,
never served again — and reported as a miss, so the caller
transparently rebuilds it; the ``quarantined`` counter surfaces the
event in the run's timing footer. An entry that simply *vanishes*
mid-read (a concurrent process evicted it between the existence check
and the open) is a plain miss, not corruption.

The codec is structural, not type-specific: it walks dataclasses,
dicts, lists/tuples and :class:`~repro.core.table.Table` instances,
extracting every NumPy array into the block payload and pickling the
remaining skeleton. Dataclass fields declared ``init=False`` are not
stored: decoding rebuilds each dataclass through its ``__init__``, so
such fields are re-derived from the stored ones. That covers
``Table``, ``SimResult``, ``MachineLoadSeries`` and the dataset
containers without this layer-0 module importing anything above
``core``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import islice
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fsutil import publish_atomically, remove_durable
from .table import Table

__all__ = [
    "MISS",
    "CacheCorruptionError",
    "CacheStats",
    "DiskCache",
    "cache_key",
    "fingerprint",
]


class CacheCorruptionError(RuntimeError):
    """A cache entry failed to decode and could not be served.

    :meth:`DiskCache.get` normally self-heals (quarantine the entry,
    report a miss, let the caller rebuild), so this error is not raised
    on the ordinary read path. It exists as the typed marker for cache
    corruption: fault injection raises it to exercise the supervisor's
    ``cache-corruption`` failure class, and any code that detects
    corruption it cannot transparently heal should raise it too.
    """


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MISS"


MISS = _Miss()


# -- keys ---------------------------------------------------------------------


def _canonical(obj: object) -> object:
    """Reduce an object to a JSON-stable structure for hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__qualname__,
            "fields": {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {
            "__dict__": [
                [_canonical(k), _canonical(v)]
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
            ]
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        # Canonicalize element-first, then sort the renderings: set
        # iteration order is per-process (hash randomization) and must
        # never reach key material.
        return {
            "__set__": sorted(
                (_canonical(v) for v in obj), key=lambda c: repr(c)
            )
        }
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes())
        return {
            "__ndarray__": digest.hexdigest(),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, float):
        return repr(obj)  # full precision, unlike JSON's default
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if callable(obj) and hasattr(obj, "__qualname__"):
        return f"callable:{getattr(obj, '__module__', '?')}.{obj.__qualname__}"
    # Plain objects (e.g. non-dataclass Distributions): hash by type
    # plus attribute state — default reprs embed memory addresses.
    state = getattr(obj, "__dict__", None)
    if state is None and hasattr(type(obj), "__slots__"):
        state = {
            name: getattr(obj, name)
            for name in type(obj).__slots__
            if hasattr(obj, name)
        }
    if isinstance(state, dict) and state:
        return {
            "__object__": type(obj).__qualname__,
            "state": {k: _canonical(v) for k, v in sorted(state.items())},
        }
    return repr(obj)


def fingerprint(obj: object) -> str:
    """Short stable digest of a configuration object.

    Dataclasses hash by field values (recursively), so any change to a
    model knob — including nested distribution parameters — changes the
    fingerprint and therefore misses the cache.
    """
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def cache_key(**components: object) -> str:
    """Content-addressed key from named components.

    Components typically include the dataset kind, scale, seed, config
    fingerprint and a code/schema version; any difference in any
    component yields a different key.
    """
    if not components:
        raise ValueError("cache_key requires at least one component")
    return hashlib.sha256(
        json.dumps(
            {k: _canonical(v) for k, v in components.items()},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
    ).hexdigest()


# -- structural codec ---------------------------------------------------------


@dataclass(frozen=True)
class _ArrayRef:
    """Placeholder for an array stored in the entry's block payload."""

    index: int


@dataclass(frozen=True)
class _TableRef:
    """Placeholder for a Table; columns reference payload arrays."""

    columns: tuple[tuple[str, "_ArrayRef"], ...]


@dataclass(frozen=True)
class _ObjRef:
    """Placeholder for a dataclass instance, rebuilt via its __init__."""

    cls: type
    state: tuple[tuple[str, object], ...]


def _encode(obj: object, arrays: list[np.ndarray]) -> object:
    """Replace arrays/Tables/dataclasses with references, recursively."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return obj  # rare; stays in the pickled skeleton
        arrays.append(obj)
        return _ArrayRef(len(arrays) - 1)
    if isinstance(obj, Table):
        return _TableRef(
            tuple(
                (name, _encode(obj[name], arrays))
                for name in obj.column_names
            )
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _ObjRef(
            cls=type(obj),
            state=tuple(
                (f.name, _encode(getattr(obj, f.name), arrays))
                for f in dataclasses.fields(obj)
                if f.init
            ),
        )
    if isinstance(obj, dict):
        return {k: _encode(v, arrays) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_encode(v, arrays) for v in obj)
    if isinstance(obj, list):
        return [_encode(v, arrays) for v in obj]
    return obj


def _decode(obj: object, arrays: list[np.ndarray]) -> object:
    """Inverse of :func:`_encode`."""
    if isinstance(obj, _ArrayRef):
        return arrays[obj.index]
    if isinstance(obj, _TableRef):
        return Table({name: _decode(ref, arrays) for name, ref in obj.columns})
    if isinstance(obj, _ObjRef):
        return obj.cls(**{name: _decode(v, arrays) for name, v in obj.state})
    if isinstance(obj, dict):
        return {k: _decode(v, arrays) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_decode(v, arrays) for v in obj)
    if isinstance(obj, list):
        return [_decode(v, arrays) for v in obj]
    return obj


# -- block payload ------------------------------------------------------------

#: Raw bytes per compressed block; the last block of an array is shorter.
#: Each worker thread's malloc arena keeps its largest buffers after the
#: pool exits, so 1 MiB blocks left the paper-scale supervisor's peak
#: 5-7 MiB higher than 256 KiB blocks do, at the same speed.
BLOCK_BYTES = 1 << 18
#: zlib level of every block: level 1 costs about 1% more bytes than
#: level 6 on the dataset entries and compresses several times faster.
_LEVEL = 1
#: Threads compressing or decompressing blocks during one put or get.
_WORKERS = min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class _ArrayLayout:
    """Where one array lives in the payload and how to rebuild it."""

    descr: object  # numpy dtype descriptor (np.lib.format.dtype_to_descr)
    shape: tuple[int, ...]
    nbytes: int  # raw C-order byte count
    block_bytes: int  # BLOCK_BYTES when written; reads do not assume it
    blocks: tuple[int, ...]  # compressed length of each block

    def raw_lengths(self) -> list[int]:
        """Raw byte count of each block."""
        return [
            min(self.block_bytes, self.nbytes - start)
            for start in range(0, self.nbytes, self.block_bytes)
        ]


@dataclass(frozen=True)
class _Skeleton:
    """Contents of ``skeleton.pkl``."""

    tree: object  # the stored object with arrays replaced by _ArrayRef
    arrays: tuple[_ArrayLayout, ...]  # payload layout, in payload order


def _raw_bytes(arr: np.ndarray) -> memoryview:
    """The array's C-order bytes (copied only if not C-contiguous)."""
    if not arr.nbytes:
        return memoryview(b"")
    return memoryview(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))


def _deflate(block: memoryview) -> bytes:
    return zlib.compress(block, _LEVEL)


def _inflate_into(job: tuple[bytes, np.ndarray]) -> None:
    """Decompress one block into its slot; raise if it does not fit."""
    data, dest = job
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(data, dest.size + 1)
    except zlib.error as exc:  # bad stream or adler32 mismatch
        raise CacheCorruptionError(f"payload block: {exc}") from None
    if not inflater.eof or inflater.unused_data or len(raw) != dest.size:
        raise CacheCorruptionError("payload block has the wrong length")
    dest[:] = np.frombuffer(raw, dtype=np.uint8)


def _ordered_map(pool: ThreadPoolExecutor | None, fn, items):
    """``map(fn, items)`` in order, with a bounded number of blocks in flight.

    ``items`` is consumed lazily, so at most ``2 * _WORKERS`` blocks
    (and their results) are held at once.
    """
    if pool is None:
        yield from map(fn, items)
        return
    pending: deque = deque()
    for item in items:
        if len(pending) >= 2 * _WORKERS:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


@contextmanager
def _block_pool():
    """A thread pool for one put or get, joined before it returns.

    No thread outlives the call: the experiment supervisor forks right
    after its warm-up reads and writes, and a fork must not copy a pool.
    """
    if _WORKERS <= 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        yield pool


def _write_payload(path: Path, arrays: list[np.ndarray]) -> tuple[_ArrayLayout, ...]:
    """Compress ``arrays`` into ``path`` block by block; return the layout."""
    blocks = (
        raw[start : start + BLOCK_BYTES]
        for raw in map(_raw_bytes, arrays)
        for start in range(0, len(raw), BLOCK_BYTES)
    )
    lengths: list[int] = []
    with open(path, "wb") as fh, _block_pool() as pool:
        for data in _ordered_map(pool, _deflate, blocks):
            fh.write(data)
            lengths.append(len(data))
    per_block = iter(lengths)
    return tuple(
        _ArrayLayout(
            descr=np.lib.format.dtype_to_descr(arr.dtype),
            shape=arr.shape,
            nbytes=arr.nbytes,
            block_bytes=BLOCK_BYTES,
            blocks=tuple(islice(per_block, -(-arr.nbytes // BLOCK_BYTES))),
        )
        for arr in arrays
    )


def _read_payload(path: Path, layout: tuple[_ArrayLayout, ...]) -> list[np.ndarray]:
    """Decompress the payload straight into fresh writable arrays."""
    arrays = [
        np.empty(a.shape, dtype=np.lib.format.descr_to_dtype(a.descr))
        for a in layout
    ]
    slots = []
    for arr, a in zip(arrays, layout):
        if arr.nbytes != a.nbytes:
            raise CacheCorruptionError("payload layout disagrees with its dtype")
        flat = arr.reshape(-1).view(np.uint8) if a.nbytes else None
        start = 0
        for length, raw_length in zip(a.blocks, a.raw_lengths(), strict=True):
            slots.append((length, flat[start : start + raw_length]))
            start += raw_length
    with open(path, "rb") as fh, _block_pool() as pool:
        expected = sum(length for length, _ in slots)
        if os.fstat(fh.fileno()).st_size != expected:
            raise CacheCorruptionError("payload file has the wrong length")
        jobs = ((fh.read(length), dest) for length, dest in slots)
        for _ in _ordered_map(pool, _inflate_into, jobs):
            pass
    return arrays


# -- the cache ----------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/put counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    errors: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "errors": self.errors,
            "quarantined": self.quarantined,
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(**self.as_dict())

    def delta(self, since: "CacheStats") -> dict[str, int]:
        """Counter increments since an earlier snapshot."""
        now = self.as_dict()
        then = since.as_dict()
        return {k: now[k] - then[k] for k in now}


_SKELETON = "skeleton.pkl"
_PAYLOAD = "arrays.zblk"
_PAYLOAD_DIR = "payload"
_META = "meta.json"
_QUARANTINE = ".quarantine"


@dataclass(frozen=True)
class _DirEntry:
    """Skeleton marker for entries whose payload is a directory tree."""


def _dir_bytes(path: Path) -> int:
    """Total size of every regular file under ``path``, recursively.

    Entries are no longer flat: a directory payload (``payload/`` from
    :meth:`DiskCache.put_path`, e.g. a spilled sharded table) nests
    files arbitrarily deep, and ``iterdir``-level ``st_size`` of a
    subdirectory reports the directory inode, not its contents — which
    would let multi-file entries blow straight through the LRU byte
    budget.
    """
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())

#: How many corrupted entries the quarantine keeps for inspection.
_QUARANTINE_KEEP = 8


class DiskCache:
    """LRU-evicting, atomically-written object cache on the filesystem.

    Parameters
    ----------
    root:
        Cache directory (created on first use).
    max_bytes:
        Byte budget across all entries; least-recently-used entries are
        evicted once exceeded. ``None`` disables the byte limit.
    max_entries:
        Entry-count budget, enforced the same way.
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int | None = 4 * 1024**3,
        max_entries: int | None = 64,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: Bytes of each entry as this instance last saw it: seeded by
        #: one scan, then updated by its own puts, quarantines and
        #: evictions (``None`` until the first eviction check).
        self._sizes: dict[Path, int] | None = None

    # -- public API -----------------------------------------------------------

    def get(self, key: str) -> object:
        """Return the cached object, or :data:`MISS`.

        Unreadable entries (a payload that fails its length or checksum
        checks, a bad pickle) are moved to the quarantine directory and
        reported as a miss so callers rebuild them. An entry evicted by
        a concurrent process between the existence check and the read is
        a plain miss.
        """
        entry = self._entry_dir(key)
        if not (entry / _SKELETON).exists():
            self.stats.misses += 1
            return MISS
        try:
            with open(entry / _SKELETON, "rb") as fh:
                skeleton = pickle.load(fh)
            if not isinstance(skeleton, _Skeleton):
                raise CacheCorruptionError("skeleton.pkl in an unknown format")
            arrays: list[np.ndarray] = []
            if skeleton.arrays:
                arrays = _read_payload(entry / _PAYLOAD, skeleton.arrays)
            obj = _decode(skeleton.tree, arrays)
        except FileNotFoundError:
            # Concurrent eviction won the race; nothing is wrong with
            # the (now absent) entry.
            self.stats.misses += 1
            return MISS
        except Exception:
            self.stats.errors += 1
            self.stats.misses += 1
            self._quarantine(entry)
            return MISS
        try:
            os.utime(entry)  # LRU touch
        except OSError:
            # Entry evicted concurrently after the read; data is intact.
            pass
        self.stats.hits += 1
        return obj

    def put(self, key: str, obj: object) -> None:
        """Store an object under ``key`` (atomic; last writer wins)."""
        self.root.mkdir(parents=True, exist_ok=True)
        arrays: list[np.ndarray] = []
        tree = _encode(obj, arrays)
        tmp = Path(tempfile.mkdtemp(dir=self.root, prefix=".write-"))
        try:
            layout = _write_payload(tmp / _PAYLOAD, arrays) if arrays else ()
            with open(tmp / _SKELETON, "wb") as fh:
                pickle.dump(
                    _Skeleton(tree=tree, arrays=layout),
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            nbytes = _dir_bytes(tmp)
            (tmp / _META).write_text(
                json.dumps({"key": key, "nbytes": nbytes}) + "\n"
            )
            entry = self._entry_dir(key)
            entry.parent.mkdir(parents=True, exist_ok=True)
            if entry.exists():
                # If the publish below fails, a crash may resurrect the
                # removed entry — a complete, equivalent cache value, so
                # the un-fsync'd removal is an accepted risk here.
                shutil.rmtree(entry, ignore_errors=True)  # reprolint: disable=REP802
            publish_atomically(tmp, entry)
        except OSError:
            # A concurrent writer renamed first; its entry is equivalent.
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            self.stats.puts += 1
            self._index(entry)
        self._evict(keep=self._entry_dir(key))

    def put_path(self, key: str, src: str | Path, *, move: bool = False) -> None:
        """Store a directory tree under ``key`` (atomic; last writer wins).

        The tree lands as the entry's ``payload/`` directory and the
        skeleton holds a marker, so the entry scans, touches and evicts
        exactly like an object entry — including byte accounting of
        every file in the tree. With ``move=True`` the source directory
        is renamed into the entry (same filesystem, no copy); the
        caller's ``src`` path is gone afterwards. Retrieve with
        :meth:`get_path`, not :meth:`get`.
        """
        src = Path(src)
        if not src.is_dir():
            raise ValueError(f"source is not a directory: {src}")
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=self.root, prefix=".write-"))
        try:
            with open(tmp / _SKELETON, "wb") as fh:
                pickle.dump(
                    _Skeleton(tree=_DirEntry(), arrays=()),
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            dest = tmp / _PAYLOAD_DIR
            if move:
                os.rename(src, dest)
            else:
                shutil.copytree(src, dest)
            nbytes = _dir_bytes(tmp)
            (tmp / _META).write_text(
                json.dumps({"key": key, "nbytes": nbytes}) + "\n"
            )
            entry = self._entry_dir(key)
            entry.parent.mkdir(parents=True, exist_ok=True)
            if entry.exists():
                # If the publish below fails, a crash may resurrect the
                # removed entry — a complete, equivalent cache value, so
                # the un-fsync'd removal is an accepted risk here.
                shutil.rmtree(entry, ignore_errors=True)  # reprolint: disable=REP802
            publish_atomically(tmp, entry)
        except OSError:
            # A concurrent writer renamed first; its entry is equivalent.
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            self.stats.puts += 1
            self._index(entry)
        self._evict(keep=self._entry_dir(key))

    def get_path(self, key: str) -> Path | _Miss:
        """Path of a directory entry's payload, or :data:`MISS`.

        The returned path stays valid until the entry is evicted;
        callers holding open memory maps into it should finish one
        analysis pass before triggering further cache writes.
        """
        entry = self._entry_dir(key)
        payload = entry / _PAYLOAD_DIR
        if not (entry / _SKELETON).exists():
            self.stats.misses += 1
            return MISS
        if not payload.is_dir():
            self.stats.errors += 1
            self.stats.misses += 1
            self._quarantine(entry)
            return MISS
        try:
            os.utime(entry)  # LRU touch
        except OSError:
            pass
        self.stats.hits += 1
        return payload

    def __contains__(self, key: str) -> bool:
        return (self._entry_dir(key) / _SKELETON).exists()

    def entries(self) -> list[str]:
        """Keys currently stored (unordered)."""
        if not self.root.is_dir():
            return []
        return [d.name for d, _, _ in self._scan()]

    def total_bytes(self) -> int:
        """Bytes used across all entries."""
        return sum(size for _, _, size in self._scan())

    def clear(self) -> None:
        """Delete every entry (removals fsynced so they cannot resurrect)."""
        for entry, _, _ in self._scan():
            try:
                remove_durable(entry)
            except OSError:
                pass
        self._sizes = None

    # -- internals ------------------------------------------------------------

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def quarantine_dir(self) -> Path:
        """Where corrupted entries are parked for inspection."""
        return self.root / _QUARANTINE

    def quarantined_entries(self) -> list[str]:
        """Keys currently held in quarantine (unordered)."""
        qdir = self.quarantine_dir()
        if not qdir.is_dir():
            return []
        return [d.name for d in qdir.iterdir() if d.is_dir()]

    def _quarantine(self, entry: Path) -> None:
        """Move a corrupted entry aside instead of serving it again.

        The moved entry keeps its files for post-mortem inspection; the
        quarantine is pruned to the most recent few so corruption storms
        cannot grow without bound. If the move itself fails (another
        process already moved or deleted the entry) the entry is simply
        removed.
        """
        if self._sizes is not None:
            self._sizes.pop(entry, None)
        qdir = self.quarantine_dir()
        dest = qdir / entry.name
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            if dest.exists():
                # Quarantine slots are junk by definition; a resurrected
                # stale slot is re-pruned, so durability is not needed.
                shutil.rmtree(dest, ignore_errors=True)  # reprolint: disable=REP802
            # payload_synced: the entry is suspected-corrupt, do not walk
            # and fsync its content — only the move itself must be
            # durable (in both parent directories, so the bad entry
            # cannot resurrect in the live tree after a crash).
            publish_atomically(entry, dest, payload_synced=True)
        except OSError:
            try:
                remove_durable(entry)
            except OSError:
                pass
        self.stats.quarantined += 1
        try:
            parked = sorted(
                (d for d in qdir.iterdir() if d.is_dir()),
                key=lambda d: (d.stat().st_mtime, d.name),
            )
        except OSError:
            return
        for stale in parked[: max(0, len(parked) - _QUARANTINE_KEEP)]:
            try:
                remove_durable(stale)
            except OSError:
                pass

    def _scan(self) -> list[tuple[Path, float, int]]:
        """(entry dir, mtime, payload bytes) for every complete entry."""
        found: list[tuple[Path, float, int]] = []
        if not self.root.is_dir():
            return found
        for shard in self.root.iterdir():
            if not shard.is_dir() or shard.name.startswith("."):
                continue
            for entry in shard.iterdir():
                if not (entry / _SKELETON).exists():
                    continue
                try:
                    mtime = entry.stat().st_mtime
                    size = _dir_bytes(entry)
                except OSError:
                    continue
                found.append((entry, mtime, size))
        return found

    def _index(self, entry: Path) -> None:
        """Record the size of an entry this instance just published."""
        if self._sizes is None:
            return
        try:
            self._sizes[entry] = _dir_bytes(entry)
        except OSError:
            self._sizes = None  # evicted meanwhile; rescan at the next check

    def _over_budget(self, count: int, total: int) -> bool:
        return (self.max_entries is not None and count > self.max_entries) or (
            self.max_bytes is not None and total > self.max_bytes
        )

    def _evict(self, keep: Path | None = None) -> None:
        """Drop least-recently-used entries beyond the size budgets.

        The size index decides whether a budget may be exceeded; only
        then is the whole cache rescanned, so a run of puts does not
        walk every entry each time. The LRU order, the budgets and the
        reseeded index all come from that scan of the disk. Entries
        other processes add meanwhile are counted at the next scan.
        """
        if self.max_bytes is None and self.max_entries is None:
            return
        sizes = self._sizes
        if sizes is not None and not self._over_budget(
            len(sizes), sum(sizes.values())
        ):
            return
        entries = sorted(self._scan(), key=lambda e: (e[1], e[0].name))
        total = sum(size for _, _, size in entries)
        count = len(entries)
        evicted: set[Path] = set()
        for entry, _, size in entries:
            if not self._over_budget(count, total):
                break
            if keep is not None and entry == keep:
                continue
            try:
                remove_durable(entry)
            except OSError:
                pass
            self.stats.evictions += 1
            evicted.add(entry)
            total -= size
            count -= 1
        self._sizes = {
            entry: size for entry, _, size in entries if entry not in evicted
        }
