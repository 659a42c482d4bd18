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

Every block runs in its own one-shot **spawn** process with a result
pipe, supervised the same way :mod:`repro.experiments.supervisor`
supervises experiments: nothing is smuggled through fork copy-on-write
(the kernel and every argument cross a real pickle boundary,
repro-lint REP303; workers touch no module-level state, REP103), and
no wait is unbounded — the parent polls pipes and process sentinels
together, so a dead worker is detected immediately and a hung one is
killed at its per-block timeout. Failures are classified:

``crash`` / ``timeout``
    Transient. The block is retried with seeded-jitter capped
    exponential backoff (:func:`repro.core.retry.backoff_delay`), up to
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
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .retry import backoff_delay
from .shard import VERIFY_MODES, ShardIntegrityError, ShardedTable
from .timing import Timings

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
    #: Supervision loop granularity (result/deadline polling).
    poll_interval: float = 0.05

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


def _now() -> float:
    """Scheduling clock for block timeouts/backoff (observability only).

    Never feeds results — the supervisor only decides *when* to run
    work whose *content* is fixed by the shard bytes and the kernel.
    """
    return time.monotonic()  # reprolint: disable=REP501


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


@dataclass
class _Pending:
    block: int
    attempt: int
    eligible_at: float


@dataclass
class _Running:
    block: int
    attempt: int
    process: object
    conn: object
    started: float
    kill_at: float | None


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


def _terminate(worker: _Running) -> None:
    process = worker.process
    if process.is_alive():
        process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=2.0)
    try:
        worker.conn.close()
    except OSError:
        pass


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
    ctx = multiprocessing.get_context("spawn")
    n = len(blocks)
    completed: dict[int, object] = {}
    durations: list[float] = []
    pending: list[_Pending] = [_Pending(i, 1, 0.0) for i in range(n)]
    running: list[_Running] = []
    transient = 0

    def launch(item: _Pending) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_block_main,
            args=(
                child_conn,
                state.root,
                config.verify,
                item.block,
                list(blocks[item.block]),
                kernel,
                args,
                fold,
                merge,
                inject,
                item.attempt,
            ),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            # A failed spawn must not leak the pipe: close both ends
            # before propagating, or the parent accumulates dead fds
            # across respawn storms.
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        now = _now()
        kill_at = now + config.timeout if config.timeout else None
        running.append(
            _Running(item.block, item.attempt, process, parent_conn, now, kill_at)
        )
        if item.attempt > 1:
            _count(timings, "mapreduce_respawns")

    def has_sibling(worker: _Running) -> bool:
        return any(
            w.block == worker.block and w is not worker for w in running
        )

    def is_queued(block: int) -> bool:
        return any(p.block == block for p in pending)

    def run_inline(block: int) -> None:
        completed[block] = _run_block_inline(
            state, blocks[block], kernel, args, fold, merge, config, heal,
            timings,
        )
        _count(timings, "mapreduce_inline")

    def fail_transient(worker: _Running, kind: str) -> None:
        nonlocal transient
        transient += 1
        _count(
            timings,
            "mapreduce_block_timeouts"
            if kind == "timeout"
            else "mapreduce_crashes",
        )
        if worker.block in completed or has_sibling(worker):
            return  # a speculative sibling already covers this block
        if worker.attempt <= config.retries:
            _count(timings, "mapreduce_retries")
            delay = backoff_delay(
                config.seed,
                f"block:{worker.block}",
                worker.attempt,
                base=config.backoff_base,
                cap=config.backoff_cap,
            )
            pending.append(
                _Pending(worker.block, worker.attempt + 1, _now() + delay)
            )
        else:
            run_inline(worker.block)

    def handle_integrity(worker: _Running, message: str) -> None:
        # The table bytes are damaged: heal (quarantine + re-derive),
        # then restart every in-flight block against the new root.
        # Finished block payloads stay valid — re-derivation is
        # byte-identical — so only unfinished work is requeued.
        try:
            state.heal(heal, message, config, timings)
        except ShardIntegrityError:
            for other in list(running):
                _terminate(other)
            running.clear()
            raise
        restart = [worker] + list(running)
        for other in list(running):
            _terminate(other)
        running.clear()
        for other in restart:
            if other.block not in completed and not is_queued(other.block):
                pending.append(_Pending(other.block, other.attempt + 1, 0.0))

    def fail_permanent(message: str) -> None:
        for other in list(running):
            _terminate(other)
        running.clear()
        raise MapReduceError(message)

    try:
        while len(completed) < n:
            if transient >= config.degrade_after:
                # Circuit breaker: the pool machinery itself is failing
                # repeatedly; finish everything inline, in order.
                for worker in list(running):
                    _terminate(worker)
                running.clear()
                pending.clear()
                for block in range(n):
                    if block not in completed:
                        run_inline(block)
                break
            now = _now()
            pending.sort(key=lambda p: (p.eligible_at, p.block))
            while (
                pending
                and len(running) < jobs
                and pending[0].eligible_at <= now
            ):
                launch(pending.pop(0))
            if (
                config.straggler_factor is not None
                and len(durations) >= max(1, n // 2)
                and len(running) < jobs
                and not pending
            ):
                median = sorted(durations)[len(durations) // 2]
                threshold = max(
                    config.straggler_floor, config.straggler_factor * median
                )
                for worker in list(running):
                    if len(running) >= jobs:
                        break
                    if has_sibling(worker):
                        continue
                    if now - worker.started > threshold:
                        _count(timings, "mapreduce_stragglers")
                        launch(_Pending(worker.block, worker.attempt + 1, now))
            if not running:
                if pending:
                    wake = min(p.eligible_at for p in pending)
                    delay = min(max(0.0, wake - now), config.backoff_cap)
                    if delay:
                        time.sleep(delay)
                    continue
                break  # nothing running or queued; loop exits via count
            waitables = [w.process.sentinel for w in running]
            deadline = now + config.poll_interval
            for worker in running:
                if worker.kill_at is not None:
                    deadline = min(deadline, worker.kill_at)
            multiprocessing.connection.wait(
                waitables, timeout=max(0.0, deadline - _now())
            )
            now = _now()
            for worker in list(running):
                if worker not in running:
                    continue
                if worker.conn.poll():
                    running.remove(worker)
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        _terminate(worker)
                        fail_transient(worker, "crash")
                        continue
                    _terminate(worker)
                    status, payload = message
                    if status == "ok":
                        if worker.block not in completed:
                            completed[worker.block] = payload
                            durations.append(now - worker.started)
                        for sibling in list(running):
                            if sibling.block == worker.block:
                                _terminate(sibling)
                                running.remove(sibling)
                    elif status == "integrity":
                        handle_integrity(worker, payload)
                    else:
                        fail_permanent(payload)
                elif not worker.process.is_alive():
                    running.remove(worker)
                    _terminate(worker)
                    fail_transient(worker, "crash")
                elif worker.kill_at is not None and now >= worker.kill_at:
                    running.remove(worker)
                    _terminate(worker)
                    fail_transient(worker, "timeout")
    finally:
        for worker in list(running):
            _terminate(worker)
        running.clear()
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
