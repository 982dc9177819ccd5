"""Supervised task dispatch over an owned :mod:`multiprocessing` pool.

Every battery — a campaign of the engine or of a scenario suite — runs
through the one battery runner of :mod:`repro.faults.engine`: a
deterministic list of pure tasks drained through a process pool, results
folded in task order.  Before this module a single worker segfault,
OOM-kill or wedged scenario aborted (or hung) the entire sweep.
:class:`Supervisor` is the one code path that runs those tasks, and it wraps
the dispatch with the crash/recovery discipline the distributed-systems
literature catalogues for crash-stop executions — timeouts as failure
detectors, bounded idempotent retry, quarantine for poisoned work:

* **per-task wall-clock timeouts** — a task that exceeds
  :attr:`SupervisorPolicy.task_timeout` is declared lost, the pool (whose
  worker is wedged on it) is rebuilt, and the task is retried;
* **bounded retry with exponential backoff** — a task that raises is
  retried up to :attr:`SupervisorPolicy.max_retries` times, sleeping
  :data:`BACKOFF_BASE` seconds before the first retry and
  :data:`BACKOFF_FACTOR` times longer before each next one (at most
  :data:`BACKOFF_MAX`).  Tasks are pure functions of their descriptors
  (seeds travel *inside* the task), so a retry recomputes byte-identical
  results — recovery never changes rows;
* **dead-worker detection** — the supervisor snapshots the pool's worker
  pids and, while waiting, notices vanished workers (``SIGKILL``, OOM,
  segfault).  :class:`multiprocessing.pool.Pool` respawns the process but
  silently loses whatever it was executing, so every non-finished in-flight
  task is re-dispatched (duplicated execution is harmless: tasks are pure
  and results are read from the newest submission only);
* **poisoned-task quarantine** — a task that fails ``max_retries + 1``
  times is yielded as a :class:`FailedTask` instead of killing the sweep;
  with :attr:`SupervisorPolicy.strict` it raises :class:`TaskFailedError`
  instead, chained to the task's last exception;
* **graceful degradation** — when the pool breaks and cannot be rebuilt
  (more than :data:`MAX_POOL_REBUILDS` rebuilds in one run, or rebuilding
  itself fails), the remaining tasks run sequentially in-process.

Results are yielded strictly in task-submission order through a sliding
window of ``workers * WINDOW_PER_WORKER`` in-flight tasks — exactly the
order ``pool.imap`` would produce — so rows never depend on the worker
count.

The supervisor owns its pool.  It starts the pool lazily from
``initializer`` / ``initargs`` (the read-only payload every worker needs,
such as a slim route index), starts a fresh one after timeouts and broken
pools, and tears it down on :meth:`Supervisor.close`, on leaving a ``with``
block, or when the supervisor is garbage-collected.  With ``workers == 1``
no pool exists and :mod:`multiprocessing` is never imported: tasks run
in-process under the same retry and quarantine discipline.

:func:`shutdown_pool` is the hardened teardown: ``terminate()``, then
``join()`` every worker with a deadline, escalating to ``kill()`` for
processes that ignore ``SIGTERM`` — interrupted runs never leave zombie
workers behind.
"""

from __future__ import annotations

import collections
import dataclasses
import time
import weakref
from typing import Callable, Deque, Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.exceptions import ReproError

__all__ = [
    "FailedTask",
    "Supervisor",
    "SupervisorPolicy",
    "TaskFailedError",
    "shutdown_pool",
]

#: Sleep before the first retry of a task, in seconds.
BACKOFF_BASE = 0.05
#: Growth of the sleep from one retry of a task to the next.
BACKOFF_FACTOR = 2.0
#: Upper bound of any single retry sleep, in seconds.
BACKOFF_MAX = 2.0
#: Pool rebuilds one run may spend before degrading to in-process execution.
MAX_POOL_REBUILDS = 3
#: Seconds between liveness checks while waiting on the oldest task.
POLL_INTERVAL = 0.05
#: In-flight tasks per worker in the submission window.
WINDOW_PER_WORKER = 4


class TaskFailedError(ReproError):
    """A supervised task exhausted its retry budget under ``strict``."""


#: Exceptions that indicate the *pool machinery* (queues, result handler)
#: broke, as opposed to the task itself raising.
_POOL_ERRORS = (OSError, EOFError, BrokenPipeError)

_SENTINEL = object()


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Tunables of one supervised run (immutable, safe to share).

    ``task_timeout`` is a wall-clock failure detector: ``None`` disables it
    (a wedged worker then hangs the sweep).  A timed out or crashed task
    costs one attempt; after ``max_retries + 1`` attempts it is quarantined
    (``strict=False``) or raised (``strict=True``).
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    strict: bool = False


def _backoff(attempts: int) -> float:
    """Return the sleep before retry number ``attempts`` (bounded)."""
    return min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** max(0, attempts - 1))


@dataclasses.dataclass
class FailedTask:
    """A quarantined task: it failed every attempt and was given up on.

    Yielded in the task's submission-order slot so consumers can record a
    structured ``failed`` row (the suite's disposition machinery) instead
    of aborting the sweep.
    """

    task: object
    attempts: int
    reason: str


class _Entry:
    """One in-flight task: descriptor, newest submission, failure state."""

    __slots__ = ("task", "result", "attempts", "deadline", "failed")

    def __init__(self, task: object) -> None:
        self.task = task
        self.result = None
        self.attempts = 0
        self.deadline: Optional[float] = None
        self.failed: Optional[FailedTask] = None


def shutdown_pool(pool, grace: float = 5.0) -> None:
    """Terminate ``pool`` and guarantee its workers are gone.

    ``Pool.terminate()`` sends ``SIGTERM`` and then **joins every worker
    without a timeout** — a worker stuck in uninterruptible I/O or ignoring
    the signal wedges ``terminate()`` itself forever (and the CLI leaks
    zombie workers on Ctrl-C).  The call therefore runs on a watchdog
    thread: workers still alive after ``grace`` seconds are escalated to
    ``kill()`` (``SIGKILL``), which unblocks the join inside
    ``terminate()``.  Safe on ``None`` and on already-closed pools.
    """
    if pool is None:
        return
    import threading

    workers = list(getattr(pool, "_pool", None) or ())
    done = threading.Event()

    def _terminate() -> None:
        try:
            pool.terminate()
        except Exception:
            pass
        finally:
            done.set()

    thread = threading.Thread(
        target=_terminate, name="repro-pool-terminate", daemon=True
    )
    thread.start()
    done.wait(grace)
    if not done.is_set() or any(process.is_alive() for process in workers):
        for process in workers:
            try:
                if process.is_alive():
                    process.kill()
            except Exception:
                pass
        done.wait(grace)
    deadline = time.monotonic() + grace
    for process in workers:
        try:
            process.join(max(0.0, deadline - time.monotonic()))
        except Exception:
            pass
    if done.is_set():
        # Only join the pool's bookkeeping threads once terminate() has
        # returned — joining a pool wedged mid-terminate would hang.
        try:
            pool.join()
        except Exception:
            pass


class Supervisor:
    """Drain pure tasks through an owned pool with timeouts, retries, rebuilds.

    Parameters
    ----------
    worker_fn:
        Module-level function executed in the workers (must be picklable).
    initializer, initargs:
        Run once in every worker process the supervisor starts, including
        the workers of a rebuilt pool: the broadcast of read-only state
        (a slim route index, a dict of them) that ``worker_fn`` reads.
    local_fn:
        In-process equivalent of ``worker_fn``, used when ``workers == 1``
        and in degraded mode (defaults to ``worker_fn`` itself).  The
        in-process path applies retry and quarantine but no timeouts: a
        synchronous call cannot be abandoned.
    policy:
        The :class:`SupervisorPolicy`; defaults to quarantine semantics.
    workers:
        Pool size; ``1`` runs every task in-process and never starts a pool.

    :meth:`run` yields ``(task, result)`` pairs in task order, where
    ``result`` is the task's return value or a :class:`FailedTask`.  The
    pool outlives a run, so a caller running many batches pays pool
    start-up and payload shipping once; :meth:`close` (or leaving a
    ``with`` block) tears it down, and a closed supervisor starts a fresh
    pool on its next run.  ``stats`` counts tasks, retries, timeouts,
    worker deaths, rebuilds, quarantines and degradation across runs.
    """

    def __init__(
        self,
        worker_fn: Callable,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        local_fn: Optional[Callable] = None,
        policy: Optional[SupervisorPolicy] = None,
        workers: int = 1,
    ) -> None:
        self.worker_fn = worker_fn
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.local_fn = local_fn if local_fn is not None else worker_fn
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.workers = workers
        self.stats: Dict[str, int] = {
            "tasks": 0,
            "retries": 0,
            "timeouts": 0,
            "worker_deaths": 0,
            "rebuilds": 0,
            "quarantined": 0,
            "degraded": 0,
        }
        self._pool = None
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """Start (once) and return the worker pool."""
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.Pool(
                self.workers, initializer=self.initializer, initargs=self.initargs
            )
            # The finalizer holds the pool, not the supervisor, so the
            # workers of a supervisor that is dropped unclosed are still
            # reaped when it is collected.
            self._finalizer = weakref.finalize(self, shutdown_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Tear the worker pool down (no-op when none is running)."""
        finalizer = self._finalizer
        self._pool = None
        self._finalizer = None
        if finalizer is not None:
            finalizer()

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shared failure plumbing
    # ------------------------------------------------------------------
    def _quarantine(
        self,
        task: object,
        attempts: int,
        reason: str,
        cause: Optional[BaseException] = None,
    ) -> FailedTask:
        self.stats["quarantined"] += 1
        if self.policy.strict:
            raise TaskFailedError(
                f"task {task!r} failed {attempts} attempt(s): {reason}"
            ) from cause
        return FailedTask(task=task, attempts=attempts, reason=reason)

    def _run_local(self, task: object, attempts: int = 0):
        """Run one task in-process with the retry/quarantine discipline."""
        while True:
            try:
                return self.local_fn(task)
            except Exception as exc:  # noqa: BLE001 - retry boundary
                attempts += 1
                if attempts > self.policy.max_retries:
                    return self._quarantine(
                        task, attempts, f"{type(exc).__name__}: {exc}", exc
                    )
                self.stats["retries"] += 1
                time.sleep(_backoff(attempts))

    def _drain_local(self, iterator: Iterator, pending: Iterable[_Entry]):
        """Degraded mode: finish every remaining task in-process."""
        self.stats["degraded"] = 1
        for entry in pending:
            if entry.failed is not None:
                yield entry.task, entry.failed
            else:
                yield entry.task, self._run_local(entry.task, entry.attempts)
        for task in iterator:
            self.stats["tasks"] += 1
            yield task, self._run_local(task)

    # ------------------------------------------------------------------
    # The supervised run
    # ------------------------------------------------------------------
    @staticmethod
    def _worker_pids(pool) -> Set[int]:
        return {
            process.pid for process in getattr(pool, "_pool", None) or ()
        }

    def run(self, tasks: Iterable) -> Iterator[Tuple[object, object]]:
        """Yield ``(task, result_or_FailedTask)`` in task-submission order."""
        if self.workers <= 1:
            for task in tasks:
                self.stats["tasks"] += 1
                yield task, self._run_local(task)
            return
        yield from self._run_pooled(iter(tasks))

    def _run_pooled(self, iterator: Iterator) -> Iterator[Tuple[object, object]]:
        import multiprocessing

        policy = self.policy
        try:
            pool = self._ensure_pool()
        except Exception:
            yield from self._drain_local(iterator, ())
            return

        window = max(1, self.workers * WINDOW_PER_WORKER)
        pending: Deque[_Entry] = collections.deque()
        pids = self._worker_pids(pool)
        rebuilds = 0

        def submit(entry: _Entry) -> None:
            entry.result = pool.apply_async(self.worker_fn, (entry.task,))
            entry.deadline = (
                None
                if policy.task_timeout is None
                else time.monotonic() + policy.task_timeout
            )

        def refill() -> None:
            # The entry joins ``pending`` *before* its first submission so a
            # submit-time pool failure can never lose a task already taken
            # from the iterator — rebuild/degrade will re-dispatch it.
            while len(pending) < window:
                task = next(iterator, _SENTINEL)
                if task is _SENTINEL:
                    return
                self.stats["tasks"] += 1
                entry = _Entry(task)
                pending.append(entry)
                submit(entry)

        def resubmit_in_flight() -> None:
            """Re-dispatch every pending task without a finished result."""
            for entry in pending:
                if entry.failed is None and (
                    entry.result is None or not entry.result.ready()
                ):
                    submit(entry)

        def rebuild() -> bool:
            """Replace the pool with a fresh one; False means degrade."""
            nonlocal pool, pids, rebuilds
            self.stats["rebuilds"] += 1
            rebuilds += 1
            self.close()
            if rebuilds > MAX_POOL_REBUILDS:
                return False
            try:
                pool = self._ensure_pool()
                pids = self._worker_pids(pool)
                # The old pool lost both its executing tasks and the queued
                # backlog: everything unfinished goes back out.
                resubmit_in_flight()
            except Exception:
                self.close()
                return False
            return True

        try:
            refill()
        except (ValueError,) + _POOL_ERRORS:
            if not rebuild():
                yield from self._drain_local(iterator, pending)
                return
        while pending:
            head = pending[0]
            if head.failed is not None:
                pending.popleft()
                yield head.task, head.failed
                try:
                    refill()
                except (ValueError,) + _POOL_ERRORS:
                    if not rebuild():
                        yield from self._drain_local(iterator, pending)
                        return
                continue
            try:
                value = head.result.get(POLL_INTERVAL)
            except multiprocessing.TimeoutError:
                if (
                    head.deadline is not None
                    and time.monotonic() > head.deadline
                ):
                    # Failure detector fired: the worker holding this task
                    # is considered wedged.  The pool is rebuilt (the only
                    # way to reclaim the worker) and the task re-tried.
                    self.stats["timeouts"] += 1
                    head.attempts += 1
                    if head.attempts > policy.max_retries:
                        head.failed = self._quarantine(
                            head.task,
                            head.attempts,
                            f"timed out after {policy.task_timeout:g}s "
                            f"per attempt",
                        )
                    else:
                        self.stats["retries"] += 1
                    if not rebuild():
                        yield from self._drain_local(iterator, pending)
                        return
                    continue
                current = self._worker_pids(pool)
                dead = pids - current
                if dead:
                    # A worker vanished (SIGKILL / OOM / segfault).  The
                    # pool respawns the process but its in-flight task is
                    # silently lost.  We cannot know *which* pending task
                    # died with it, so the oldest unfinished entries — the
                    # ones most likely executing — are charged an attempt,
                    # and every unfinished task is re-dispatched.
                    self.stats["worker_deaths"] += len(dead)
                    pids = current
                    charged = 0
                    for entry in pending:
                        if charged >= len(dead):
                            break
                        if entry.failed is None and not entry.result.ready():
                            entry.attempts += 1
                            if entry.attempts > policy.max_retries:
                                entry.failed = self._quarantine(
                                    entry.task,
                                    entry.attempts,
                                    "worker process died while executing "
                                    "this task",
                                )
                            charged += 1
                    try:
                        resubmit_in_flight()
                    except (ValueError,) + _POOL_ERRORS:
                        if not rebuild():
                            yield from self._drain_local(iterator, pending)
                            return
                continue
            except _POOL_ERRORS:
                # The pool machinery itself broke (result handler died,
                # queue torn): rebuild or degrade.
                if not rebuild():
                    yield from self._drain_local(iterator, pending)
                    return
                continue
            except Exception as exc:  # noqa: BLE001 - the task raised
                head.attempts += 1
                if head.attempts > policy.max_retries:
                    head.failed = self._quarantine(
                        head.task,
                        head.attempts,
                        f"{type(exc).__name__}: {exc}",
                        exc,
                    )
                    continue
                self.stats["retries"] += 1
                time.sleep(_backoff(head.attempts))
                try:
                    submit(head)
                except (ValueError,) + _POOL_ERRORS:
                    if not rebuild():
                        yield from self._drain_local(iterator, pending)
                        return
                continue
            else:
                pending.popleft()
                yield head.task, value
                try:
                    refill()
                except (ValueError,) + _POOL_ERRORS:
                    if not rebuild():
                        yield from self._drain_local(iterator, pending)
                        return
