"""Chaos-injection integration tests: crash a sweep, prove nothing changed.

The supervision layer's whole claim is that fault recovery is *invisible in
the results*: a sweep that loses a worker, hits a poisoned task, wedges on
a hang or tears a store write must end with byte-identical store contents
to an undisturbed run.  These tests drive :func:`run_scenario_suite`,
:meth:`CampaignEngine.sweep_fault_sizes` and the ``repro grid`` CLI
under ``REPRO_CHAOS`` injections (see :mod:`repro.runtime.chaos`) and
compare stores and rows against golden runs.

The once-only ledger (``REPRO_CHAOS_LEDGER``) makes transient faults
expressible — kill one worker, then let the retry succeed.  Injections
without a ledger are permanent faults and exercise the quarantine path:
the campaign becomes a ``disposition="failed"`` status row instead of
aborting the sweep.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import render_scaling_report
from repro.core import kernel_routing
from repro.faults import CampaignEngine
from repro.faults.simulation import CampaignStatus
from repro.graphs import generators
from repro.results import ResultStore
from repro.runtime import CHAOS_ENV, LEDGER_ENV, SupervisorPolicy
from repro.runtime import supervisor as supervisor_module
from repro.scenarios import run_scenario_suite, suite_manifest

REPO_ROOT = Path(__file__).resolve().parents[2]

SCENARIOS = [
    "cycle:n=12/kernel/t=1/sizes:1,2",
    "hypercube:d=3/kernel/t=1/sizes:1",
]
SAMPLES = 6
SEED = 3
CHUNK = 4
MANIFEST = suite_manifest(SCENARIOS, SAMPLES, SEED, None, CHUNK)



@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    """Retry without real sleeping, so injected failures cost no wall-clock."""
    monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 0.001)
    monkeypatch.setattr(supervisor_module, "BACKOFF_MAX", 0.002)


def _run_suite(store_path, *, workers=1, policy=None, skipped=None):
    store_path = Path(store_path)
    if store_path.exists():
        store = ResultStore.open(str(store_path), MANIFEST)
    else:
        store = ResultStore.create(str(store_path), MANIFEST)
    try:
        rows = run_scenario_suite(
            SCENARIOS,
            samples=SAMPLES,
            seed=SEED,
            chunk_size=CHUNK,
            workers=workers,
            store=store,
            policy=policy,
            skipped=skipped,
        )
    finally:
        store.close()
    return rows


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Bytes and records of an undisturbed run (chaos env forced clean)."""
    saved = {
        key: os.environ.pop(key)
        for key in (CHAOS_ENV, LEDGER_ENV)
        if key in os.environ
    }
    try:
        path = tmp_path_factory.mktemp("golden") / "golden.jsonl"
        rows = _run_suite(path, workers=2)
        return path.read_bytes(), [row.record() for row in rows]
    finally:
        os.environ.update(saved)


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    directory = tmp_path / "ledger"
    directory.mkdir()
    monkeypatch.setenv(LEDGER_ENV, str(directory))
    return directory


class TestTransientFaults:
    """Once-only injections: the retry recomputes, nothing differs."""

    def test_poisoned_task_inprocess_retries_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "task:fail")
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=1)
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]

    def test_poisoned_task_pooled_retries_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "task:fail")
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=2)
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]

    def test_killed_worker_rebuilds_pool_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "task:kill")
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=2)
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]

    def test_hung_worker_times_out_byte_identical(
        self, tmp_path, monkeypatch, ledger, golden
    ):
        monkeypatch.setenv(CHAOS_ENV, "task:hang")
        policy = SupervisorPolicy(task_timeout=1.0)
        path = tmp_path / "store.jsonl"
        rows = _run_suite(path, workers=2, policy=policy)
        assert path.read_bytes() == golden[0]
        assert [row.record() for row in rows] == golden[1]


class TestEngineRecovery:
    """The engine's shards recover in-process and pooled, invisibly."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = generators.hypercube_graph(4)
        return graph, kernel_routing(graph).routing

    @pytest.fixture(scope="class")
    def clean_records(self, workload):
        saved = {
            key: os.environ.pop(key)
            for key in (CHAOS_ENV, LEDGER_ENV)
            if key in os.environ
        }
        try:
            return self._sweep(workload, workers=1)
        finally:
            os.environ.update(saved)

    @staticmethod
    def _sweep(workload, workers):
        graph, routing = workload
        with CampaignEngine(graph, routing, workers=workers) as engine:
            rows = engine.sweep_fault_sizes([1, 2, 3], samples=40, seed=7)
        return [row.record() for row in rows]

    @pytest.mark.parametrize(
        "workers, action", [(1, "fail"), (2, "fail"), (2, "kill")]
    )
    def test_sweep_survives_one_injected_fault(
        self, workload, clean_records, monkeypatch, ledger, workers, action
    ):
        monkeypatch.setenv(CHAOS_ENV, f"task:{action}")
        assert self._sweep(workload, workers) == clean_records
        # The injection fired exactly once, and the retry recomputed it.
        assert len(list(ledger.iterdir())) == 1


class TestQuarantine:
    """Permanent injections: the campaign fails as a row, not the sweep."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_always_failing_campaign_quarantines_and_resumes(
        self, tmp_path, monkeypatch, golden, workers
    ):
        # No ledger: every hypercube shard is poisoned on every attempt.
        # In-process, a task groups the campaign's shards; pooled, a task
        # is one shard.  Either way only that campaign fails.
        monkeypatch.setenv(CHAOS_ENV, "task:fail:hypercube")
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        path = tmp_path / "store.jsonl"
        rows = _run_suite(
            path,
            workers=workers,
            policy=SupervisorPolicy(max_retries=1),
        )
        assert len(rows) == 3
        failed = [
            row for row in rows if isinstance(row.campaign, CampaignStatus)
        ]
        assert len(failed) == 1
        assert failed[0].scenario.startswith("hypercube")
        assert failed[0].campaign.disposition == "failed"
        assert "injected failure" in failed[0].campaign.reason
        # The scenario itself built fine; the row keeps its provenance.
        assert failed[0].fingerprint is not None
        first_bytes = path.read_bytes()
        first_records = [row.record() for row in rows]
        # Every other row is the clean run's.
        assert [
            record
            for record in first_records
            if not record["scenario"].startswith("hypercube")
        ] == [
            record
            for record in golden[1]
            if not record["scenario"].startswith("hypercube")
        ]

        # The stored report distinguishes "failed" from "not swept".
        loaded = ResultStore.load(str(path))
        report = render_scaling_report(loaded.frame, loaded.run)
        assert "failed" in report
        assert "(1 failed)" in report

        # Resume with chaos cleared: failed rows are never silently
        # retried — everything rehydrates and the store does not change.
        monkeypatch.delenv(CHAOS_ENV)
        resumed = _run_suite(path, workers=1)
        assert [row.record() for row in resumed] == first_records
        assert path.read_bytes() == first_bytes

    def test_suite_task_labels_carry_the_canonical_spec(self, monkeypatch):
        """``task:<action>:<spec>`` injections can single out one scenario."""
        from repro.faults import engine as engine_module
        from repro.scenarios import parse_scenario

        labels = []
        monkeypatch.setattr(
            engine_module, "chaos_point", lambda site, label: labels.append(label)
        )
        run_scenario_suite(SCENARIOS, samples=SAMPLES, seed=SEED, chunk_size=CHUNK)
        specs = {parse_scenario(spec).canonical() for spec in SCENARIOS}
        assert {label.split(":start=")[0] for label in labels} == specs

    def test_strict_restores_fail_fast(self, tmp_path, monkeypatch):
        from repro.runtime import TaskFailedError

        monkeypatch.setenv(CHAOS_ENV, "task:fail:hypercube")
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        path = tmp_path / "store.jsonl"
        with pytest.raises(TaskFailedError):
            _run_suite(
                path,
                workers=1,
                policy=SupervisorPolicy(max_retries=0, strict=True),
            )


class TestTornStoreWrites:
    """A writer killed mid-append: salvage + resume ends byte-identical."""

    GRID = "cycle:n=12/kernel/t=1/sizes:1-2"
    ARGS = ["--samples", "6", "--chunk-size", "4", "--seed", "3"]

    def _cli(self, tmp_path, *argv, chaos=None):
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in (CHAOS_ENV, LEDGER_ENV)
        }
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        if chaos:
            env[CHAOS_ENV] = chaos
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=str(tmp_path),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_torn_append_salvage_resume_byte_identical(self, tmp_path):
        golden = self._cli(
            tmp_path, "grid", self.GRID, *self.ARGS, "--store", "golden.jsonl"
        )
        assert golden.returncode == 0, golden.stderr

        # The injected writer tears its first append and dies (exit 23).
        torn = self._cli(
            tmp_path,
            "grid",
            self.GRID,
            *self.ARGS,
            "--store",
            "chaos.jsonl",
            chaos="append:torn",
        )
        assert torn.returncode == 23
        chaos_store = tmp_path / "chaos.jsonl"
        golden_bytes = (tmp_path / "golden.jsonl").read_bytes()
        assert chaos_store.read_bytes() != golden_bytes

        # Explicit salvage quarantines the torn tail...
        salvage = self._cli(tmp_path, "salvage", "chaos.jsonl")
        assert salvage.returncode == 0, salvage.stderr
        assert "quarantined" in salvage.stdout
        sidecar = tmp_path / "chaos.jsonl.quarantine"
        assert sidecar.exists()
        assert sidecar.read_bytes().strip()

        # ...and the resumed sweep finishes with the golden bytes exactly.
        resumed = self._cli(
            tmp_path,
            "grid",
            self.GRID,
            *self.ARGS,
            "--store",
            "chaos.jsonl",
            "--resume",
        )
        assert resumed.returncode == 0, resumed.stderr
        assert chaos_store.read_bytes() == golden_bytes

    def test_resume_alone_salvages_torn_store(self, tmp_path):
        golden = self._cli(
            tmp_path, "grid", self.GRID, *self.ARGS, "--store", "golden.jsonl"
        )
        assert golden.returncode == 0, golden.stderr
        torn = self._cli(
            tmp_path,
            "grid",
            self.GRID,
            *self.ARGS,
            "--store",
            "chaos.jsonl",
            chaos="append:torn",
        )
        assert torn.returncode == 23
        # No explicit salvage: --resume quarantines the tail itself.
        resumed = self._cli(
            tmp_path,
            "grid",
            self.GRID,
            *self.ARGS,
            "--store",
            "chaos.jsonl",
            "--resume",
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "chaos.jsonl").read_bytes() == (
            tmp_path / "golden.jsonl"
        ).read_bytes()
        assert (tmp_path / "chaos.jsonl.quarantine").exists()


class TestInapplicableAnnotations:
    """Dropped scenarios are recorded and annotated, and resume cleanly."""

    def test_grid_records_inapplicable_and_report_annotates(self, tmp_path):
        saved = {
            key: os.environ.pop(key)
            for key in (CHAOS_ENV, LEDGER_ENV)
            if key in os.environ
        }
        try:
            # circular does not apply to hypercubes of this size: with a
            # strategy axis the combination drops and records status rows.
            scenarios = [
                "hypercube:d=3/kernel/t=1/sizes:1",
                "hypercube:d=3/circular/t=1/sizes:1",
            ]
            manifest = suite_manifest(scenarios, SAMPLES, SEED, None, CHUNK)
            path = tmp_path / "store.jsonl"
            store = ResultStore.create(str(path), manifest)
            skipped = []
            try:
                rows = run_scenario_suite(
                    scenarios,
                    samples=SAMPLES,
                    seed=SEED,
                    chunk_size=CHUNK,
                    store=store,
                    skip_inapplicable=True,
                    skipped=skipped,
                )
            finally:
                store.close()
            assert len(skipped) == 1
            assert len(rows) == 1  # the dropped scenario returns no rows
            first_bytes = path.read_bytes()

            loaded = ResultStore.load(str(path))
            assert len(loaded) == 2  # campaign row + inapplicable status row
            report = render_scaling_report(loaded.frame, loaded.run)
            assert "n/a" in report
            assert "(1 not applicable)" in report

            # Resume honours the stored drop without rebuilding: same rows,
            # same bytes, same skipped notice.
            store = ResultStore.open(str(path), manifest)
            resumed_skipped = []
            try:
                resumed = run_scenario_suite(
                    scenarios,
                    samples=SAMPLES,
                    seed=SEED,
                    chunk_size=CHUNK,
                    store=store,
                    skip_inapplicable=True,
                    skipped=resumed_skipped,
                )
            finally:
                store.close()
            assert len(resumed) == 1
            assert len(resumed_skipped) == 1
            assert [row.record() for row in resumed] == [
                row.record() for row in rows
            ]
            assert path.read_bytes() == first_bytes
        finally:
            os.environ.update(saved)
