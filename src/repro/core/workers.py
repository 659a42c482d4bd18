"""Supervised one-shot workers: the process layer under every fan-out.

The experiment supervisor (:mod:`repro.experiments.supervisor`, one
forked worker per experiment attempt) and the shard map-reduce
(:mod:`repro.core.mapreduce`, one spawned worker per block attempt)
share this layer. Each attempt runs in a fresh process that sends at
most one message on its own result pipe and exits, so a crash or hang
costs exactly one attempt, a hung worker can be killed on its own, and
"requeue only unfinished work" is the only possible behaviour.

:class:`WorkerPool` owns the mechanics; its caller owns the meaning:

* It launches at most ``jobs`` workers, and waits on every result pipe
  and process sentinel together. The wait ends at the nearest
  scheduled event — a worker's kill time, a retry's backoff expiry, the
  run deadline or a straggler threshold — so there is no poll interval.
* It sorts each ended attempt into one of three kinds: ``message`` (the
  worker's message arrived), ``crash`` (it died with no message, or
  mid-send) or ``timeout`` (it ran past its kill time and was killed).
* On request it requeues an attempt after a seeded, capped exponential
  backoff (:func:`backoff_delay`), up to ``retries`` times, and it
  speculates on stragglers when asked to.
* Leaving its ``with`` block terminates every live worker, whatever
  raised, so no worker outlives the supervisor's timeouts.

What an attempt means — success, a retryable failure, a permanent one,
a reason to cancel or heal — is decided by the caller, which also
decides what to do when retries are spent.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Hashable, Iterator
from dataclasses import dataclass
from multiprocessing.connection import wait

__all__ = ["Attempt", "WorkerPool", "backoff_delay"]


def _now() -> float:
    """Scheduling clock for timeouts, backoff and deadlines.

    Never feeds results: the pool only decides *when* to run work whose
    *content* is fixed by its arguments (REP501 is about outputs).
    """
    return time.monotonic()  # reprolint: disable=REP501


def backoff_delay(
    seed: int,
    token: str,
    attempt: int,
    *,
    base: float = 0.25,
    cap: float = 30.0,
) -> float:
    """Deterministic capped exponential backoff with seeded jitter.

    A pure function of ``(seed, token, attempt)``: the raw delay
    doubles per failed attempt up to ``cap``, then jitter drawn from a
    SHA-256 of the inputs spreads it over ``[raw/2, raw)`` so
    concurrent retries decorrelate without any wall-clock RNG. The
    ``token`` names the retried unit (an experiment id, a block index)
    so distinct units decorrelate under one seed.
    """
    raw = min(cap, base * (2.0 ** max(0, attempt - 1)))
    digest = hashlib.sha256(
        f"{seed}:{token}:{attempt}".encode("utf-8")
    ).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
    return raw * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class Attempt:
    """How one worker attempt ended."""

    key: Hashable
    #: 1-based attempt number for this key.
    attempt: int
    #: ``message`` | ``crash`` | ``timeout``.
    kind: str
    #: The worker's message (``kind == "message"`` only).
    message: object = None
    exitcode: int | None = None
    #: Seconds from launch to the end of the attempt.
    elapsed: float = 0.0


@dataclass
class _Pending:
    """An attempt waiting for a worker slot (possibly in backoff)."""

    key: Hashable
    attempt: int = 1
    eligible_at: float = 0.0


@dataclass(eq=False)
class _Running:
    """One live worker attempt."""

    key: Hashable
    attempt: int
    process: object  # multiprocessing.process.BaseProcess
    conn: object  # parent end of the result pipe
    started: float
    kill_at: float | None


def _terminate(worker: _Running) -> None:
    """Stop a worker if alive (SIGTERM, then SIGKILL); close its pipe."""
    process = worker.process
    if process.is_alive():  # type: ignore[attr-defined]
        process.terminate()  # type: ignore[attr-defined]
        process.join(1.0)  # type: ignore[attr-defined]
        if process.is_alive():  # type: ignore[attr-defined]
            process.kill()  # type: ignore[attr-defined]
            process.join(5.0)  # type: ignore[attr-defined]
    worker.conn.close()  # type: ignore[attr-defined]


class WorkerPool:
    """One-shot workers, at most ``jobs`` live, supervised together.

    Each attempt of ``key`` runs ``target(conn, *args_for(key,
    attempt))`` in a new daemon process of ``ctx`` (a
    ``multiprocessing`` context: fork or spawn). ``timeout`` bounds each
    attempt. ``deadline`` (seconds from construction) ends iteration;
    whatever is still queued or running then is the caller's to
    :meth:`cancel`. ``retries``, ``seed``, ``backoff_base`` and
    ``backoff_cap`` shape :meth:`retry`. With ``straggler_factor`` set,
    once half the keys have finished and a slot is free with nothing
    queued, a worker running longer than ``max(straggler_floor,
    straggler_factor * median finished time)`` gets one speculative
    duplicate; :meth:`finish` on either kills the other.

    Iterating yields one :class:`Attempt` per ended worker until nothing
    is queued or running, or the deadline passes. While handling an
    attempt the caller may :meth:`submit`, :meth:`retry`,
    :meth:`finish`, :meth:`restart` or :meth:`cancel`.
    """

    def __init__(
        self,
        ctx,
        target: Callable[..., None],
        args_for: Callable[[Hashable, int], tuple],
        *,
        jobs: int,
        timeout: float | None = None,
        deadline: float | None = None,
        retries: int = 0,
        seed: int = 0,
        backoff_base: float = 0.25,
        backoff_cap: float = 30.0,
        straggler_factor: float | None = None,
        straggler_floor: float = 1.0,
    ) -> None:
        self._ctx = ctx
        self._target = target
        self._args_for = args_for
        self._jobs = max(1, jobs)
        self._timeout = timeout
        self._deadline = _now() + deadline if deadline is not None else None
        self._retries = retries
        self._seed = seed
        self._backoff = (backoff_base, backoff_cap)
        self._straggler = (
            (straggler_factor, straggler_floor)
            if straggler_factor is not None
            else None
        )
        self._pending: list[_Pending] = []
        self._running: list[_Running] = []
        self._keys: set[Hashable] = set()
        self._done: set[Hashable] = set()
        self._durations: list[float] = []
        #: Launches of a second or later attempt (retries, restarts and
        #: speculative duplicates).
        self.respawns = 0
        #: Speculative duplicates launched for stragglers.
        self.stragglers = 0

    # -- the caller's verbs ----------------------------------------------

    def submit(self, key: Hashable) -> None:
        """Queue the first attempt of ``key``."""
        self._keys.add(key)
        self._pending.append(_Pending(key))

    def retry(self, ended: Attempt) -> bool:
        """Requeue ``ended`` after its backoff; False if retries are spent."""
        if ended.attempt > self._retries:
            return False
        base, cap = self._backoff
        delay = backoff_delay(
            self._seed, str(ended.key), ended.attempt, base=base, cap=cap
        )
        self._pending.append(
            _Pending(ended.key, ended.attempt + 1, _now() + delay)
        )
        return True

    def finish(self, ended: Attempt) -> None:
        """Mark ``ended.key`` done and kill any duplicate still running."""
        if ended.key not in self._done:
            self._done.add(ended.key)
            self._durations.append(ended.elapsed)
        for sibling in self._live(ended.key):
            self._running.remove(sibling)
            _terminate(sibling)

    def running(self, key: Hashable) -> bool:
        """Whether an attempt of ``key`` is still running."""
        return bool(self._live(key))

    def restart(self, ended: Attempt) -> None:
        """Kill every live worker; requeue its key and ``ended``'s at once.

        Each unfinished key is queued once, at its attempt + 1, with no
        backoff.
        """
        restart = [(ended.key, ended.attempt)] + [
            (worker.key, worker.attempt) for worker in self._running
        ]
        self.close()
        for key, attempt in restart:
            if key not in self._done and not any(
                item.key == key for item in self._pending
            ):
                self._pending.append(_Pending(key, attempt + 1))

    def cancel(self) -> list[tuple[Hashable, int]]:
        """Kill every live worker and drop the queue.

        Returns ``(key, attempts started)`` for everything stopped.
        """
        stopped = [(worker.key, worker.attempt) for worker in self._running]
        stopped += [(item.key, item.attempt - 1) for item in self._pending]
        self.close()
        self._pending.clear()
        return stopped

    def close(self) -> None:
        """Terminate every live worker."""
        running, self._running = self._running, []
        for worker in running:
            _terminate(worker)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- supervision -----------------------------------------------------

    def __iter__(self) -> Iterator[Attempt]:
        while self._pending or self._running:
            now = _now()
            if self._deadline is not None and now >= self._deadline:
                return
            self._launch_eligible(now)
            self._speculate(now)
            wake = self._wake_at()
            timeout = None if wake is None else max(0.0, wake - _now())
            if self._running:
                wait(
                    [worker.conn for worker in self._running]
                    + [worker.process.sentinel for worker in self._running],
                    timeout,
                )
            elif timeout:
                time.sleep(timeout)
            now = _now()
            for worker in list(self._running):
                # A handler may have stopped it (finish/restart/cancel).
                if worker in self._running:
                    ended = self._check(worker, now)
                    if ended is not None:
                        yield ended

    def _live(self, key: Hashable) -> list[_Running]:
        return [worker for worker in self._running if worker.key == key]

    def _launch_eligible(self, now: float) -> None:
        for item in list(self._pending):
            if len(self._running) >= self._jobs:
                break
            if item.eligible_at <= now:
                self._pending.remove(item)
                self._launch(item)

    def _launch(self, item: _Pending) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=self._target,
            args=(child_conn, *self._args_for(item.key, item.attempt)),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            # A failed start must not leak the pipe.
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        started = _now()
        kill_at = None if self._timeout is None else started + self._timeout
        self._running.append(
            _Running(
                item.key, item.attempt, process, parent_conn, started, kill_at
            )
        )
        if item.attempt > 1:
            self.respawns += 1

    def _straggler_threshold(self) -> float | None:
        """Run time past which a worker is speculated on, if speculation
        is possible now."""
        if (
            self._straggler is None
            or self._pending
            or len(self._running) >= self._jobs
            or len(self._durations) < max(1, len(self._keys) // 2)
        ):
            return None
        factor, floor = self._straggler
        median = sorted(self._durations)[len(self._durations) // 2]
        return max(floor, factor * median)

    def _speculate(self, now: float) -> None:
        threshold = self._straggler_threshold()
        if threshold is None:
            return
        for worker in list(self._running):
            if len(self._running) >= self._jobs:
                break
            alone = len(self._live(worker.key)) == 1
            if alone and now - worker.started > threshold:
                self.stragglers += 1
                self._launch(_Pending(worker.key, worker.attempt + 1, now))

    def _wake_at(self) -> float | None:
        """The nearest time the supervision loop has work to do."""
        times = [w.kill_at for w in self._running if w.kill_at is not None]
        if self._deadline is not None:
            times.append(self._deadline)
        if self._pending and len(self._running) < self._jobs:
            times.append(min(item.eligible_at for item in self._pending))
        threshold = self._straggler_threshold()
        if threshold is not None:
            times += [
                w.started + threshold
                for w in self._running
                if len(self._live(w.key)) == 1
            ]
        return min(times) if times else None

    def _check(self, worker: _Running, now: float) -> Attempt | None:
        """Classify ``worker`` if its attempt has ended, else None."""
        if worker.conn.poll():  # type: ignore[attr-defined]
            try:
                message = worker.conn.recv()  # type: ignore[attr-defined]
            except (EOFError, OSError):
                return self._end(worker, now, "crash")
            return self._end(worker, now, "message", message)
        if not worker.process.is_alive():  # type: ignore[attr-defined]
            return self._end(worker, now, "crash")
        if worker.kill_at is not None and now >= worker.kill_at:
            return self._end(worker, now, "timeout")
        return None

    def _end(
        self,
        worker: _Running,
        now: float,
        kind: str,
        message: object = None,
    ) -> Attempt:
        self._running.remove(worker)
        _terminate(worker)
        return Attempt(
            key=worker.key,
            attempt=worker.attempt,
            kind=kind,
            message=message,
            exitcode=worker.process.exitcode,  # type: ignore[attr-defined]
            elapsed=now - worker.started,
        )
