"""Unit tests for the supervised pool dispatcher and hardened shutdown.

Worker functions live at module level so the fork start method can pickle
them by reference.  Cross-process coordination (fail exactly N times, die
exactly once) uses ``O_CREAT | O_EXCL`` marker files in a shared temporary
directory — the same once-only idiom the chaos ledger uses.
"""

import dataclasses
import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import (
    FailedTask,
    Supervisor,
    SupervisorPolicy,
    TaskFailedError,
    shutdown_pool,
)
from repro.runtime import supervisor as supervisor_module


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    """Retry without real sleeping (the backoff is a module constant)."""
    monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 0.001)
    monkeypatch.setattr(supervisor_module, "BACKOFF_MAX", 0.002)


def _claim(directory, name):
    """Atomically claim a marker file; True when this call got it."""
    try:
        fd = os.open(
            os.path.join(directory, name),
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _square(task):
    return task * task


def _flaky(task):
    """Fail ``fails`` times across all processes, then succeed."""
    value, fails, directory = task
    for attempt in range(fails):
        if _claim(directory, f"flaky-{value}-{attempt}"):
            raise RuntimeError(f"transient failure {attempt} for {value}")
    return value * value


def _poison(task):
    raise ValueError(f"poisoned task {task}")


def _suicide_once(task):
    """SIGKILL the executing worker the first time this task value runs."""
    value, directory = task
    if _claim(directory, f"suicide-{value}"):
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _hang_forever(task):
    value = task[0] if isinstance(task, tuple) else task
    if value == "hang":
        time.sleep(600)
    return value


def _ignore_sigterm():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)


def _sleep_forever(_task):
    time.sleep(600)


_PAYLOAD = None


def _install_payload(payload):
    global _PAYLOAD
    _PAYLOAD = payload


def _payload_or_hang(task):
    """Return the worker's installed payload; hang on the task ``"hang"``."""
    if task == "hang":
        time.sleep(600)
    return _PAYLOAD


@pytest.fixture
def no_pools(monkeypatch):
    """Make every pool construction fail, as on a host without fork."""

    def broken_pool(*args, **kwargs):
        raise OSError("no forks today")

    monkeypatch.setattr(multiprocessing, "Pool", broken_pool)


def run_supervised(supervisor, tasks):
    return list(supervisor.run(tasks))


class TestLocalPath:
    def test_results_in_order(self):
        sup = Supervisor(_square, workers=1)
        assert run_supervised(sup, [3, 1, 4]) == [(3, 9), (1, 1), (4, 16)]
        assert sup.stats["tasks"] == 3
        assert sup.stats["retries"] == 0
        assert sup._pool is None

    def test_retry_until_success(self, tmp_path):
        sup = Supervisor(_flaky, workers=1)
        tasks = [(5, 2, str(tmp_path))]
        assert run_supervised(sup, tasks) == [(tasks[0], 25)]
        assert sup.stats["retries"] == 2
        assert sup.stats["quarantined"] == 0

    def test_quarantine_after_budget(self):
        sup = Supervisor(_poison, policy=SupervisorPolicy(max_retries=1))
        ((task, result),) = run_supervised(sup, ["bad"])
        assert isinstance(result, FailedTask)
        assert result.attempts == 2
        assert "poisoned task bad" in result.reason
        assert sup.stats["quarantined"] == 1

    def test_strict_restores_fail_fast(self):
        sup = Supervisor(
            _poison, policy=SupervisorPolicy(max_retries=0, strict=True)
        )
        with pytest.raises(TaskFailedError, match="poisoned task") as info:
            run_supervised(sup, ["bad"])
        assert isinstance(info.value.__cause__, ValueError)

    def test_local_fn_replaces_worker_fn_in_process(self):
        sup = Supervisor(_poison, local_fn=_square, workers=1)
        assert run_supervised(sup, [4]) == [(4, 16)]

    def test_backoff_is_bounded(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(supervisor_module, "BACKOFF_FACTOR", 10.0)
        monkeypatch.setattr(supervisor_module, "BACKOFF_MAX", 0.5)
        assert supervisor_module._backoff(1) == pytest.approx(0.1)
        assert supervisor_module._backoff(2) == pytest.approx(0.5)
        assert supervisor_module._backoff(9) == pytest.approx(0.5)

    def test_policy_has_three_fields(self):
        fields = [field.name for field in dataclasses.fields(SupervisorPolicy)]
        assert fields == ["task_timeout", "max_retries", "strict"]


class TestPooledPath:
    def test_clean_run_preserves_order(self):
        with Supervisor(_square, workers=2) as sup:
            tasks = list(range(20))
            assert run_supervised(sup, tasks) == [(t, t * t) for t in tasks]
        assert sup.stats["rebuilds"] == 0
        assert sup.stats["degraded"] == 0

    def test_pool_outlives_a_run_and_restarts_after_close(self):
        sup = Supervisor(_square, workers=2)
        try:
            assert run_supervised(sup, [1, 2]) == [(1, 1), (2, 4)]
            pool = sup._pool
            assert pool is not None
            assert run_supervised(sup, [3]) == [(3, 9)]
            assert sup._pool is pool
            sup.close()
            assert sup._pool is None
            # A closed supervisor starts a fresh pool on its next run.
            assert run_supervised(sup, [4]) == [(4, 16)]
            assert sup._pool is not None and sup._pool is not pool
        finally:
            sup.close()

    def test_initializer_runs_in_every_worker_of_every_pool(self):
        with Supervisor(
            _payload_or_hang,
            initializer=_install_payload,
            initargs=("slim",),
            policy=SupervisorPolicy(task_timeout=1.0, max_retries=0),
            workers=2,
        ) as sup:
            results = run_supervised(sup, ["a", "hang", "b", "c"])
        # The parent never ran the initializer; every worker did, including
        # the workers of the pool rebuilt after the timeout.
        assert _PAYLOAD is None
        assert [value for task, value in results if task != "hang"] == [
            "slim"
        ] * 3
        assert sup.stats["rebuilds"] >= 1

    def test_dropped_supervisor_reaps_its_workers(self):
        sup = Supervisor(_square, workers=2)
        assert run_supervised(sup, [5]) == [(5, 25)]
        workers = list(sup._pool._pool)
        del sup
        gc.collect()
        for process in workers:
            process.join(10.0)
            assert not process.is_alive()

    def test_task_exception_retries_in_worker(self, tmp_path):
        with Supervisor(_flaky, workers=2) as sup:
            tasks = [(v, 1 if v == 3 else 0, str(tmp_path)) for v in range(6)]
            assert run_supervised(sup, tasks) == [
                (t, t[0] * t[0]) for t in tasks
            ]
        assert sup.stats["retries"] == 1

    def test_strict_failure_chains_the_worker_error(self):
        with Supervisor(
            _poison, policy=SupervisorPolicy(max_retries=1, strict=True), workers=2
        ) as sup:
            with pytest.raises(TaskFailedError, match="poisoned task") as info:
                run_supervised(sup, ["bad"])
        assert isinstance(info.value.__cause__, ValueError)

    def test_worker_sigkill_recovers_and_completes(self, tmp_path):
        tasks = [(v, str(tmp_path)) for v in range(6)]
        # Only task value 2 kills its worker (and only once).
        for value, _ in tasks:
            if value != 2:
                _claim(str(tmp_path), f"suicide-{value}")
        with Supervisor(_suicide_once, workers=2) as sup:
            assert run_supervised(sup, tasks) == [
                (t, t[0] * t[0]) for t in tasks
            ]
        assert sup.stats["worker_deaths"] >= 1

    def test_timeout_quarantines_and_rest_completes(self):
        with Supervisor(
            _hang_forever,
            policy=SupervisorPolicy(task_timeout=0.4, max_retries=0),
            workers=2,
        ) as sup:
            results = run_supervised(sup, ["a", "hang", "b"])
        assert results[0] == ("a", "a")
        assert results[2] == ("b", "b")
        task, failed = results[1]
        assert task == "hang"
        assert isinstance(failed, FailedTask)
        assert "timed out" in failed.reason
        assert sup.stats["timeouts"] == 1
        assert sup.stats["rebuilds"] >= 1

    def test_unbuildable_pool_degrades_to_inprocess(self, no_pools):
        sup = Supervisor(_square, workers=2)
        assert run_supervised(sup, [2, 3]) == [(2, 4), (3, 9)]
        assert sup.stats["degraded"] == 1

    def test_degraded_mode_uses_local_fn(self, no_pools):
        sup = Supervisor(_poison, local_fn=_square, workers=2)
        assert run_supervised(sup, [4]) == [(4, 16)]


def test_single_worker_sweeps_never_import_the_pool():
    """One-worker engine sweeps and suite runs stay free of the pool module.

    Importing ``multiprocessing.pool`` costs about a megabyte of resident
    memory, so the supervisor imports it only when it starts a pool.
    """
    code = (
        "import sys\n"
        "from repro.core import kernel_routing\n"
        "from repro.faults import sweep_fault_sizes\n"
        "from repro.graphs import generators\n"
        "from repro.scenarios import run_scenario_suite\n"
        "graph = generators.cycle_graph(12)\n"
        "routing = kernel_routing(graph).routing\n"
        "sweep_fault_sizes(graph, routing, [1, 2], samples=8, seed=1)\n"
        "run_scenario_suite(['hypercube:d=3/kernel/sizes:1'], samples=4)\n"
        "print('multiprocessing.pool' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestShutdownPool:
    def test_none_is_a_no_op(self):
        shutdown_pool(None)

    def test_duck_typed_pool_without_workers(self):
        class FakePool:
            def __init__(self):
                self.calls = []

            def terminate(self):
                self.calls.append("terminate")

            def join(self):
                self.calls.append("join")

        fake = FakePool()
        shutdown_pool(fake)
        assert fake.calls == ["terminate", "join"]

    def test_escalates_to_kill_on_sigterm_immune_workers(self):
        pool = multiprocessing.Pool(1, initializer=_ignore_sigterm)
        pool.apply_async(_sleep_forever, (None,))
        time.sleep(0.3)  # let the worker start sleeping
        workers = list(pool._pool)
        start = time.monotonic()
        shutdown_pool(pool, grace=1.0)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        for process in workers:
            assert not process.is_alive()
