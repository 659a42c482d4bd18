"""Supervised, deterministic map-reduce over sharded tables.

Executes a pure kernel over every shard of a
:class:`~repro.core.shard.ShardedTable` and folds the results with a
mergeable-accumulator ``merge``. Output order is the contract:

* shards are processed in shard order, and
* the reduction is the left fold ``merge(merge(r0, r1), r2) ...`` in
  shard order, regardless of ``jobs`` — and regardless of crashes,
  retries, stragglers, or degradation to inline execution.

With ``jobs > 1`` the shard index range is split into ``jobs``
contiguous blocks; each worker folds its own block locally (so at most
one shard per worker is materialized at a time) and the parent folds
the block results in block order. For any merge that is *exact* under
regrouping of an ordered sequence — integer count sums, ordered chunk
concatenation, max unions, boundary stitching — the parallel result is
byte-identical to the serial fold; every accumulator shipped in
``core.kernels``/``core.segments``/``core.fairness`` satisfies this.

Every block attempt runs in its own one-shot **spawn** worker of
:class:`repro.core.workers.WorkerPool`, the layer that also supervises
experiments: nothing is smuggled through fork copy-on-write (the
kernel and every argument cross a real pickle boundary, repro-lint
REP303; workers touch no module-level state, REP103), a dead worker or
a finished result is seen at once, and a hung worker is killed at its
per-block timeout. This module decides what each ended attempt means:

``crash`` / ``timeout``
    Transient. The block is retried with seeded-jitter capped
    exponential backoff (:func:`repro.core.workers.backoff_delay`), up to
    ``retries`` extra attempts, then falls back to inline execution in
    the parent. Repeated transient failures across the pool trip a
    circuit breaker (``degrade_after``) that finishes every remaining
    block inline, in order — graceful degradation to ``jobs=1``.
``integrity``
    A :class:`~repro.core.shard.ShardIntegrityError` — the table
    itself is damaged, so retrying the same bytes cannot help. The
    optional ``heal`` callback re-derives the table from its source
    (e.g. re-spilling a generator stream), in-flight blocks are requeued
    against the healed root, and finished block results stay valid
    because re-derivation is byte-identical.
``error``
    Any other exception is deterministic under the kernel-purity
    contract; it fails fast as :class:`MapReduceError`.

Stragglers: once at least half the blocks have finished, a block
running far past the median block time (``straggler_factor``) gets a
speculative duplicate; the first result wins and the loser is killed.

Recovery counters (``mapreduce_retries``, ``mapreduce_crashes``,
``mapreduce_block_timeouts``, ``mapreduce_respawns``,
``mapreduce_stragglers``, ``mapreduce_inline``) accumulate into the
optional ``timings`` so they surface in the caller's recovery footer.
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .shard import VERIFY_MODES, ShardIntegrityError, ShardedTable
from .timing import Timings
from .workers import WorkerPool

__all__ = [
    "MapReduceConfig",
    "MapReduceError",
    "map_reduce",
    "map_shards",
    "merge_accumulators",
]

Kernel = Callable[..., object]
Merge = Callable[[object, object], object]
#: ``inject(root, block_index, attempt)`` — fault-injection hook run in
#: the worker before the block; ``heal(root, message) -> new_root|None``
#: — parent-side recovery from shard corruption.
Inject = Callable[[str, int, int], None]
Heal = Callable[[str, str], str | None]


class MapReduceError(RuntimeError):
    """A worker raised a permanent (non-transient) exception."""


@dataclass(frozen=True)
class MapReduceConfig:
    """Fault-tolerance policy for one supervised map-reduce pass."""

    #: Per-block wall-clock budget; a worker past it is killed and the
    #: attempt classified ``timeout``. ``None`` disables.
    timeout: float | None = None
    #: Extra attempts per block for transient failures before the block
    #: falls back to inline execution in the parent.
    retries: int = 2
    #: First-retry backoff, doubling per attempt up to ``backoff_cap``.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Seed for the deterministic backoff jitter.
    seed: int = 0
    #: Digest-verification mode workers open the table with.
    verify: str = "lazy"
    #: Transient failures across the whole pass that trip the circuit
    #: breaker: every remaining block then runs inline, in order.
    degrade_after: int = 4
    #: Most ``heal`` round-trips allowed before the integrity error is
    #: raised to the caller (guards against re-corrupting storage).
    max_heals: int = 2
    #: A running block slower than ``straggler_factor`` x the median
    #: finished-block time (and ``straggler_floor`` seconds) gets a
    #: speculative duplicate. ``None`` disables speculation.
    straggler_factor: float | None = 4.0
    straggler_floor: float = 1.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_heals < 0:
            raise ValueError("max_heals must be >= 0")
        if self.verify not in VERIFY_MODES:
            raise ValueError(
                f"unknown verify mode {self.verify!r}; available: "
                f"{VERIFY_MODES}"
            )


def merge_accumulators(left: object, right: object) -> object:
    """Default merge: delegate to the accumulator's ``merge`` method."""
    merged = left.merge(right)  # type: ignore[attr-defined]
    return left if merged is None else merged


def _split_blocks(n_shards: int, jobs: int) -> list[range]:
    """Contiguous near-equal index blocks, deterministic in (n, jobs)."""
    jobs = max(1, min(jobs, n_shards))
    base, extra = divmod(n_shards, jobs)
    blocks: list[range] = []
    start = 0
    for i in range(jobs):
        size = base + (1 if i < extra else 0)
        blocks.append(range(start, start + size))
        start += size
    return blocks


def _evaluate_block(
    table: ShardedTable,
    indices: Sequence[int],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
) -> object:
    """Left-fold (or collect) the kernel over one contiguous block."""
    if fold:
        acc: object = None
        for index in indices:
            result = kernel(table.shard(index), *args)
            acc = result if acc is None else merge(acc, result)
        return acc
    return [kernel(table.shard(index), *args) for index in indices]


def _block_main(
    conn,
    root: str,
    verify: str,
    block_index: int,
    indices: list[int],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
    inject: Inject | None,
    attempt: int,
) -> None:
    """Worker entry: evaluate one block, send one classified message."""
    try:
        try:
            if inject is not None:
                inject(root, block_index, attempt)
            table = ShardedTable.open(root, verify=verify)
            payload = _evaluate_block(table, indices, kernel, args, fold, merge)
            conn.send(("ok", payload))
        except ShardIntegrityError as exc:
            conn.send(("integrity", _format_error(exc)))
        except Exception as exc:
            conn.send(("error", _format_error(exc)))
    finally:
        conn.close()


def _format_error(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


class _HealState:
    """Current table root plus the heal budget, shared across blocks."""

    __slots__ = ("root", "heals")

    def __init__(self, root: str) -> None:
        self.root = root
        self.heals = 0

    def heal(
        self,
        heal: Heal | None,
        message: str,
        config: MapReduceConfig,
        timings: Timings | None,
    ) -> None:
        """Re-derive the table or re-raise; updates ``self.root``."""
        self.heals += 1
        if heal is None or self.heals > config.max_heals:
            raise ShardIntegrityError(message, root=self.root)
        new_root = heal(self.root, message)
        if not new_root:
            raise ShardIntegrityError(message, root=self.root)
        self.root = str(new_root)


def _count(timings: Timings | None, name: str, n: int = 1) -> None:
    if timings is not None and n:
        timings.count(name, n)


def _run_block_inline(
    state: _HealState,
    indices: Sequence[int],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
    config: MapReduceConfig,
    heal: Heal | None,
    timings: Timings | None,
    table: ShardedTable | None = None,
) -> object:
    """Evaluate one block in-process, healing shard corruption."""
    while True:
        try:
            if table is None:
                table = ShardedTable.open(state.root, verify=config.verify)
            return _evaluate_block(table, indices, kernel, args, fold, merge)
        except ShardIntegrityError as exc:
            table = None
            state.heal(heal, _format_error(exc), config, timings)


def _supervise(
    state: _HealState,
    blocks: list[list[int]],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
    jobs: int,
    config: MapReduceConfig,
    inject: Inject | None,
    heal: Heal | None,
    timings: Timings | None,
) -> list[object]:
    """Run every block under supervision; results in block order."""
    n = len(blocks)
    completed: dict[int, object] = {}
    transient = 0

    def run_inline(block: int) -> None:
        completed[block] = _run_block_inline(
            state, blocks[block], kernel, args, fold, merge, config, heal,
            timings,
        )
        _count(timings, "mapreduce_inline")

    pool = WorkerPool(
        multiprocessing.get_context("spawn"),
        _block_main,
        lambda block, attempt: (
            state.root, config.verify, block, list(blocks[block]), kernel,
            args, fold, merge, inject, attempt,
        ),
        jobs=jobs,
        timeout=config.timeout,
        retries=config.retries,
        seed=config.seed,
        backoff_base=config.backoff_base,
        backoff_cap=config.backoff_cap,
        straggler_factor=config.straggler_factor,
        straggler_floor=config.straggler_floor,
    )
    try:
        with pool:
            for block in range(n):
                pool.submit(block)
            for ended in pool:
                if ended.kind == "message":
                    status, payload = ended.message  # type: ignore[misc]
                    if status == "ok":
                        completed.setdefault(ended.key, payload)  # type: ignore
                        pool.finish(ended)
                    elif status == "integrity":
                        # The table bytes are damaged: heal (quarantine +
                        # re-derive), then restart every in-flight block
                        # against the new root. Finished block payloads
                        # stay valid (re-derivation is byte-identical),
                        # so only unfinished work is requeued.
                        state.heal(heal, payload, config, timings)
                        pool.restart(ended)
                    else:
                        raise MapReduceError(payload)
                    continue
                transient += 1
                _count(
                    timings,
                    "mapreduce_block_timeouts"
                    if ended.kind == "timeout"
                    else "mapreduce_crashes",
                )
                if ended.key in completed or pool.running(ended.key):
                    pass  # a speculative sibling already covers this block
                elif pool.retry(ended):
                    _count(timings, "mapreduce_retries")
                else:
                    run_inline(ended.key)  # type: ignore[arg-type]
                if transient >= config.degrade_after:
                    # Circuit breaker: the pool machinery itself is
                    # failing repeatedly; finish everything inline, in
                    # order.
                    pool.cancel()
                    for block in range(n):
                        if block not in completed:
                            run_inline(block)
    finally:
        _count(timings, "mapreduce_respawns", pool.respawns)
        _count(timings, "mapreduce_stragglers", pool.stragglers)
    return [completed[block] for block in range(n)]


def _run_blocks(
    table: ShardedTable,
    blocks: list[list[int]],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
    jobs: int,
    config: MapReduceConfig,
    inject: Inject | None,
    heal: Heal | None,
    timings: Timings | None,
) -> list[object]:
    state = _HealState(str(table.root))
    if jobs <= 1 or len(blocks) <= 1:
        results = []
        reuse: ShardedTable | None = table
        for block in blocks:
            results.append(
                _run_block_inline(
                    state, block, kernel, args, fold, merge, config, heal,
                    timings, table=reuse,
                )
            )
            reuse = None if state.heals else table
        return results
    return _supervise(
        state, blocks, kernel, args, fold, merge, jobs, config, inject, heal,
        timings,
    )


def map_shards(
    table: ShardedTable,
    kernel: Kernel,
    *,
    args: tuple = (),
    jobs: int = 1,
    config: MapReduceConfig | None = None,
    inject: Inject | None = None,
    heal: Heal | None = None,
    timings: Timings | None = None,
) -> list[object]:
    """Kernel result per shard, in shard order."""
    n = table.num_shards
    if n == 0:
        return []
    config = config or MapReduceConfig()
    blocks = [list(block) for block in _split_blocks(n, jobs)]
    results = _run_blocks(
        table, blocks, kernel, args, False, merge_accumulators, jobs, config,
        inject, heal, timings,
    )
    return [item for block_result in results for item in block_result]


def map_reduce(
    table: ShardedTable,
    kernel: Kernel,
    *,
    args: tuple = (),
    jobs: int = 1,
    merge: Merge = merge_accumulators,
    config: MapReduceConfig | None = None,
    inject: Inject | None = None,
    heal: Heal | None = None,
    timings: Timings | None = None,
) -> object:
    """Left fold of per-shard kernel results in shard order.

    Returns ``None`` for a table with zero shards.
    """
    n = table.num_shards
    if n == 0:
        return None
    config = config or MapReduceConfig()
    blocks = [list(block) for block in _split_blocks(n, jobs)]
    results = _run_blocks(
        table, blocks, kernel, args, True, merge, jobs, config, inject, heal,
        timings,
    )
    acc = results[0]
    for result in results[1:]:
        acc = merge(acc, result)
    return acc
