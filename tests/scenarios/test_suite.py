"""Scenario-suite runner: determinism, worker independence, bounded rows."""

from __future__ import annotations

import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.simulation import CampaignResult, DecisionCampaignResult
from repro.scenarios import parse_scenario, run_scenario_suite

#: Small, fast-to-build scenarios used across the suite tests.
SMALL_SCENARIOS = [
    "hypercube:d=3/kernel/sizes:1,2",
    "petersen/kernel/exhaustive:f=1",
    "circulant:n=12,offsets=1+2/kernel/random:p=0.1",
]


def _rows(scenarios, **kwargs):
    return [row.as_row() for row in run_scenario_suite(scenarios, **kwargs)]


def _batteries(campaigns, pool):
    """Each expanded campaign's fault sets (as node lists), drawn over ``pool``."""
    index = types.SimpleNamespace(node_pool=tuple(pool))
    return {
        campaign_key: [
            fault_set.nodes() for shard in shards for fault_set in shard.materialise(index)
        ]
        for campaign_key, _fault_size, shards in campaigns
    }


class TestSuiteBasics:
    def test_one_row_per_campaign(self):
        rows = run_scenario_suite(SMALL_SCENARIOS, samples=6, seed=0)
        # sizes:1,2 -> 2 rows; exhaustive:f=1 -> sizes 0 and 1 -> 2 rows;
        # random:p -> 1 row.
        assert len(rows) == 5
        assert [row.campaign.fault_size for row in rows] == [1, 2, 0, 1, 0]

    def test_rows_carry_scenario_metadata(self):
        (row,) = run_scenario_suite(["hypercube:d=3/kernel/sizes:2"], samples=4, seed=1)
        assert row.scenario == "hypercube:d=3/kernel/sizes:2"
        assert row.scheme == "kernel"
        assert row.nodes == 8 and row.edges == 12
        assert len(row.fingerprint) == 64
        assert row.campaign.bfs_strategy in ("batched", "per-source")
        flat = row.as_row()
        assert flat["scenario"] == row.scenario
        assert flat["fingerprint"] == row.fingerprint[:12]

    def test_same_seed_same_rows(self):
        first = _rows(SMALL_SCENARIOS, samples=6, seed=9)
        second = _rows(SMALL_SCENARIOS, samples=6, seed=9)
        assert first == second

    def test_different_seed_changes_sampled_batteries(self):
        from repro.scenarios.suite import _expand_campaigns
        from repro.scenarios import as_scenarios

        scenarios = as_scenarios(["circulant:n=16,offsets=1+2/kernel/sizes:3"])
        pool = list(range(16))
        (battery_a,) = _batteries(_expand_campaigns(scenarios, 20, 1, 32), pool).values()
        (battery_b,) = _batteries(_expand_campaigns(scenarios, 20, 2, 32), pool).values()
        assert len(battery_a) == len(battery_b) == 20
        assert battery_a != battery_b

    def test_exhaustive_rows_cover_all_sets(self):
        rows = run_scenario_suite(["petersen/kernel/exhaustive:f=1"], samples=3, seed=0)
        assert [row.campaign.samples for row in rows] == [1, 10]

    def test_exhaustive_model_past_the_node_count_is_a_clean_error(self):
        # The Petersen graph has 10 nodes: no fault set of size 11 exists.
        with pytest.raises(ValueError, match="no fault sets to evaluate"):
            run_scenario_suite(["petersen/kernel/exhaustive:f=11"], samples=3, seed=0)

    def test_scenario_values_and_strings_mix(self):
        scenario = parse_scenario("hypercube:d=3/kernel/sizes:1")
        rows = run_scenario_suite([scenario, "petersen/kernel/sizes:1"], samples=4, seed=0)
        assert len(rows) == 2

    def test_empty_suite(self):
        assert run_scenario_suite([], samples=5, seed=0) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_scenario_suite(SMALL_SCENARIOS, samples=0)
        with pytest.raises(ValueError):
            run_scenario_suite(SMALL_SCENARIOS, workers=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"chunk_size": 0}, "chunk_size must be at least 1"),
            ({"chunk_size": -1}, "chunk_size must be at least 1"),
            ({"greedy": True, "candidate_limit": 0}, "candidate_limit must be at least 1"),
            ({"greedy": True, "candidate_limit": -1}, "candidate_limit must be at least 1"),
        ],
    )
    def test_battery_arguments_refused_before_any_build(
        self, kwargs, message, monkeypatch
    ):
        from repro.scenarios import suite as suite_module

        builds = []
        monkeypatch.setattr(
            suite_module.Scenario, "build_graph", lambda self: builds.append(self)
        )
        with pytest.raises(ValueError, match=message):
            run_scenario_suite(SMALL_SCENARIOS, samples=4, **kwargs)
        assert builds == []


class TestBoundedSuite:
    def test_bounded_rows_are_decisions(self):
        rows = run_scenario_suite(
            ["hypercube:d=3/kernel/sizes:1,2"], samples=8, seed=3, bound=4
        )
        for row in rows:
            assert isinstance(row.campaign, DecisionCampaignResult)
            assert row.campaign.bound == 4

    def test_bounded_and_exact_agree_on_violations(self):
        """Decision rows flag a violation iff the exact row exceeds the bound."""
        specs = ["cycle:n=16/kernel/sizes:2,3"]
        exact = run_scenario_suite(specs, samples=12, seed=5)
        bounded = run_scenario_suite(specs, samples=12, seed=5, bound=4)
        for exact_row, bounded_row in zip(exact, bounded):
            assert isinstance(exact_row.campaign, CampaignResult)
            # max_diameter tracks finite diameters only; disconnecting sets
            # (inf) violate any finite bound too.
            exceeded = (
                exact_row.campaign.max_diameter > 4
                or exact_row.campaign.disconnected_fraction > 0
            )
            assert bounded_row.campaign.holds == (not exceeded)


class TestWorkerIndependence:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=st.sampled_from(SMALL_SCENARIOS),
        samples=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bound=st.sampled_from([None, 3, 4.0]),
        chunk_size=st.sampled_from([2, 5, 32]),
    )
    def test_suite_rows_identical_for_1_vs_4_workers(
        self, spec, samples, seed, bound, chunk_size
    ):
        """Suite rows are a pure function of (scenarios, samples, seed, bound)."""
        sequential = _rows(
            [spec], samples=samples, seed=seed, bound=bound, chunk_size=chunk_size
        )
        parallel = _rows(
            [spec],
            samples=samples,
            seed=seed,
            bound=bound,
            chunk_size=chunk_size,
            workers=4,
        )
        assert sequential == parallel

    def test_multi_scenario_suite_identical_for_1_vs_4_workers(self):
        sequential = _rows(SMALL_SCENARIOS, samples=10, seed=11)
        parallel = _rows(SMALL_SCENARIOS, samples=10, seed=11, workers=4)
        assert sequential == parallel


class TestSuiteSeedIndependence:
    def test_repeated_sizes_draw_independent_batteries(self):
        """sizes:2,2 must not evaluate the same battery twice (seed tags
        include the campaign position, mirroring sweep_fault_sizes)."""
        from repro.scenarios import as_scenarios
        from repro.scenarios.suite import _expand_campaigns

        scenarios = as_scenarios(["circulant:n=16,offsets=1+2/kernel/sizes:2,2"])
        campaigns = _expand_campaigns(scenarios, 20, 0, 32)
        assert len(campaigns) == 2
        batteries = _batteries(campaigns, range(16))
        first, second = batteries[(0, 0)], batteries[(0, 1)]
        assert len(first) == len(second) == 20
        assert first != second

    def test_repeated_scenarios_draw_independent_batteries(self):
        from repro.scenarios import as_scenarios
        from repro.scenarios.suite import _expand_campaigns

        spec = "circulant:n=16,offsets=1+2/kernel/sizes:2"
        scenarios = as_scenarios([spec, spec])
        batteries = _batteries(_expand_campaigns(scenarios, 20, 0, 32), range(16))
        assert batteries[(0, 0)] != batteries[(1, 0)]


class TestRecordRoundTrip:
    def test_scenario_rows_round_trip_through_records(self):
        for bound in (None, 4):
            rows = run_scenario_suite(SMALL_SCENARIOS, samples=5, seed=2, bound=bound)
            for row in rows:
                from repro.scenarios import ScenarioRow

                restored = ScenarioRow.from_record(row.record())
                assert restored.as_row() == row.as_row()
                assert restored.fingerprint == row.fingerprint
                assert restored.campaign.samples == row.campaign.samples

    def test_records_fit_the_unified_frame(self):
        from repro.results import result_frame

        rows = run_scenario_suite(SMALL_SCENARIOS, samples=5, seed=2)
        frame = result_frame(row.record() for row in rows)
        assert len(frame) == len(rows)
        assert set(frame.column("source")) == {"suite"}
        assert all(fp is not None for fp in frame.column("fingerprint"))

    def test_backend_column_is_the_requested_backend(self, monkeypatch):
        """Engine and suite rows name the backend asked for, numpy or not."""
        from repro.core import np_kernel
        from repro.faults import CampaignEngine

        monkeypatch.setattr(np_kernel, "np", None)
        spec = "circulant:n=12,offsets=1+2/kernel/sizes:2"
        (row,) = run_scenario_suite([spec], samples=4, seed=1, backend="numpy")
        graph, result = parse_scenario(spec).build()
        engine = CampaignEngine(graph, result.routing, backend="numpy")
        campaign = engine.run_campaign(2, samples=4, seed=1)
        assert engine.index.eval_backend == "bitset"
        assert campaign.record()["backend"] == row.record()["backend"] == "numpy"


class TestRealisedFaultSizes:
    def test_random_p_rows_surface_realised_sizes(self):
        (row,) = run_scenario_suite(
            ["circulant:n=12,offsets=1+2/kernel/random:p=0.3"], samples=20, seed=4
        )
        campaign = row.campaign
        assert campaign.fault_size == 0  # nominal
        assert campaign.faults_max >= 1  # p=0.3 over 12 nodes, 20 samples
        assert campaign.faults_min <= campaign.faults_mean <= campaign.faults_max
        flat = row.as_row()
        assert flat["faults"] == f"{campaign.faults_min}..{campaign.faults_max}"
        assert flat["mean_faults"] == round(campaign.faults_mean, 2)

    def test_fixed_size_rows_keep_plain_faults_column(self):
        (row,) = run_scenario_suite(["hypercube:d=3/kernel/sizes:2"], samples=5, seed=0)
        assert row.campaign.faults_min == row.campaign.faults_max == 2
        assert row.as_row()["faults"] == 2
        assert "mean_faults" not in row.as_row()


class TestSuiteStoreResume:
    def _store(self, tmp_path, scenarios, samples, seed, bound=None):
        from repro.results import ResultStore
        from repro.scenarios import suite_manifest

        run = suite_manifest(scenarios, samples, seed, bound)
        return ResultStore.open(str(tmp_path / "rows.jsonl"), run)

    def test_store_records_one_row_per_campaign(self, tmp_path):
        with self._store(tmp_path, SMALL_SCENARIOS, 6, 0) as store:
            rows = run_scenario_suite(SMALL_SCENARIOS, samples=6, seed=0, store=store)
            assert len(store) == len(rows) == 5

    def test_full_store_short_circuits_everything(self, tmp_path, monkeypatch):
        with self._store(tmp_path, SMALL_SCENARIOS, 6, 0) as store:
            expected = run_scenario_suite(SMALL_SCENARIOS, samples=6, seed=0, store=store)
        # Re-running against the complete store must not evaluate any task
        # nor build any scenario.
        from repro.faults import engine as engine_module
        from repro.scenarios import suite as suite_module

        def fail_eval(task, indexes=None):  # pragma: no cover - must not run
            raise AssertionError("task evaluated during a fully-resumed run")

        monkeypatch.setattr(engine_module, "_evaluate_task", fail_eval)
        build_calls = []
        original_build = suite_module.Scenario.build
        monkeypatch.setattr(
            suite_module.Scenario,
            "build",
            lambda self: build_calls.append(self) or original_build(self),
        )
        with self._store(tmp_path, SMALL_SCENARIOS, 6, 0) as store:
            resumed = run_scenario_suite(SMALL_SCENARIOS, samples=6, seed=0, store=store)
        assert build_calls == []
        assert [row.as_row() for row in resumed] == [row.as_row() for row in expected]

    def test_partial_store_recomputes_only_missing_rows(self, tmp_path, monkeypatch):
        from repro.results import ResultStore
        from repro.scenarios import suite_manifest

        expected = run_scenario_suite(SMALL_SCENARIOS, samples=6, seed=0)
        path = tmp_path / "rows.jsonl"
        run = suite_manifest(SMALL_SCENARIOS, 6, 0, None)
        with ResultStore.open(str(path), run) as store:
            rows = run_scenario_suite(SMALL_SCENARIOS, samples=6, seed=0, store=store)
        full_text = path.read_text()
        # Keep the manifest plus the first two rows: simulates a kill after
        # two campaigns finished.
        lines = full_text.splitlines(keepends=True)
        path.write_text("".join(lines[:3]))

        from repro.faults import engine as engine_module

        evaluated = []
        original_eval = engine_module._evaluate_task

        def counting_eval(task, indexes=None):
            evaluated.append(task[0])
            return original_eval(task, indexes)

        monkeypatch.setattr(engine_module, "_evaluate_task", counting_eval)
        with ResultStore.open(str(path), run) as store:
            resumed = run_scenario_suite(SMALL_SCENARIOS, samples=6, seed=0, store=store)
        # The two stored campaigns (both of the first scenario's) were
        # skipped...
        assert parse_scenario(SMALL_SCENARIOS[0]).canonical() not in evaluated
        assert evaluated  # ...and the remaining ones genuinely ran.
        # Rows and the store file match the uninterrupted run exactly.
        assert [row.as_row() for row in resumed] == [row.as_row() for row in rows]
        assert [row.as_row() for row in resumed] == [row.as_row() for row in expected]
        assert path.read_text() == full_text

    def test_repeated_scenarios_get_distinct_keys(self, tmp_path):
        from repro.scenarios import suite_row_keys, as_scenarios

        spec = "hypercube:d=3/kernel/sizes:1"
        keys = suite_row_keys(as_scenarios([spec, spec]))
        assert keys[0] != keys[1]
        with self._store(tmp_path, [spec, spec], 4, 0) as store:
            rows = run_scenario_suite([spec, spec], samples=4, seed=0, store=store)
            assert len(store) == 2
        # The repeats drew independent batteries, as without a store.
        plain = run_scenario_suite([spec, spec], samples=4, seed=0)
        assert [row.as_row() for row in rows] == [row.as_row() for row in plain]

    def test_store_from_other_routing_rejected(self, tmp_path):
        from repro.results import ResultStore
        from repro.scenarios import suite_manifest

        specs = ["hypercube:d=3/kernel/sizes:1,2"]
        path = tmp_path / "rows.jsonl"
        run = suite_manifest(specs, 6, 0, None)
        with ResultStore.open(str(path), run) as store:
            run_scenario_suite(specs, samples=6, seed=0, store=store)
        # Corrupt the stored fingerprint of the first row, keep the second
        # missing so the scenario is partially complete and gets rebuilt.
        lines = path.read_text().splitlines(keepends=True)
        tampered = lines[1].replace(
            '"fingerprint":"', '"fingerprint":"0000'
        )
        path.write_text(lines[0] + tampered)
        with ResultStore.open(str(path), run) as store:
            with pytest.raises(RuntimeError, match="different construction"):
                run_scenario_suite(specs, samples=6, seed=0, store=store)


class TestStrategyAxisSuite:
    #: A two-strategy comparison grid where both constructions apply at
    #: every size (cycles accept kernel and circular at t=1).
    GRID = "cycle:n=10..12/kernel|circular/t=1/sizes:1"

    def _scenarios(self):
        from repro.scenarios import expand_grids

        return expand_grids([self.GRID])

    def test_split_runs_match_combined_run(self):
        """Battery seeds hash scenario identity, not suite position: the
        per-strategy halves of a comparison grid produce exactly the rows
        of the combined run (the substrate of store merging)."""
        from repro.scenarios import expand_grids

        combined = _rows(self._scenarios(), samples=6, seed=9)
        kernel = _rows(
            expand_grids(["cycle:n=10..12/kernel/t=1/sizes:1"]),
            samples=6,
            seed=9,
        )
        circular = _rows(
            expand_grids(["cycle:n=10..12/circular/t=1/sizes:1"]),
            samples=6,
            seed=9,
        )
        by_scenario = {row["scenario"]: row for row in kernel + circular}
        assert combined == [by_scenario[row["scenario"]] for row in combined]

    def test_strategy_axis_resume_is_byte_identical(self, tmp_path, monkeypatch):
        """Truncate a multi-strategy store mid-run, resume, and require the
        store and the rendered report to match the uninterrupted run
        byte for byte (the pytest mirror of CI's grid-smoke job)."""
        from repro.analysis import render_scaling_report
        from repro.results import ResultStore, result_frame
        from repro.scenarios import suite_manifest

        scenarios = self._scenarios()
        run = suite_manifest(scenarios, 6, 9, None)
        path = tmp_path / "rows.jsonl"
        with ResultStore.open(str(path), run) as store:
            full_rows = run_scenario_suite(
                scenarios, samples=6, seed=9, store=store
            )
        full_text = path.read_text()
        full_report = render_scaling_report(
            result_frame(row.record() for row in full_rows), run
        )
        assert " t=" in full_report  # strategy column groups present

        # Kill simulation: keep the manifest, two rows of the kernel half,
        # and half of a third line (a circular row still unwritten).
        lines = full_text.splitlines(keepends=True)
        path.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])

        evaluated = []
        from repro.faults import engine as engine_module

        original_eval = engine_module._evaluate_task

        def counting_eval(task, indexes=None):
            evaluated.append(task[0])
            return original_eval(task, indexes)

        monkeypatch.setattr(engine_module, "_evaluate_task", counting_eval)
        with ResultStore.open(str(path), run) as store:
            resumed_rows = run_scenario_suite(
                scenarios, samples=6, seed=9, store=store
            )
        resumed_report = render_scaling_report(
            result_frame(row.record() for row in resumed_rows), run
        )
        # The first two scenarios' single campaigns were stored.
        assert scenarios[0].canonical() not in evaluated
        assert scenarios[1].canonical() not in evaluated
        assert evaluated  # the truncated tail genuinely re-ran
        assert path.read_text() == full_text
        assert resumed_report == full_report

    def test_inapplicable_scenarios_raise_without_opt_in(self):
        with pytest.raises(Exception, match="neighbourhood set"):
            run_scenario_suite(
                ["hypercube:d=3/circular/sizes:1"], samples=4, seed=0
            )

    def test_skip_inapplicable_never_swallows_graph_errors(self):
        # A malformed graph axis (cycle needs n >= 3) is a broken grid, not
        # an inapplicable strategy: it must raise even under the skip flag.
        with pytest.raises(Exception, match="at least three nodes"):
            run_scenario_suite(
                ["cycle:n=2/kernel/sizes:1"],
                samples=4,
                seed=0,
                skip_inapplicable=True,
            )

    def test_skip_inapplicable_accepts_per_scenario_eligibility(self):
        # An iterable of canonical strings restricts dropping: the eligible
        # scenario is dropped, an inapplicable one outside the set raises.
        eligible = "hypercube:d=3/circular/sizes:1"
        skipped = []
        rows = run_scenario_suite(
            [eligible, "hypercube:d=3/kernel/sizes:1"],
            samples=4,
            seed=0,
            skip_inapplicable=[eligible],
            skipped=skipped,
        )
        assert [row.scenario for row in rows] == ["hypercube:d=3/kernel/sizes:1"]
        assert len(skipped) == 1
        with pytest.raises(Exception, match="neighbourhood set"):
            run_scenario_suite(
                [eligible],
                samples=4,
                seed=0,
                skip_inapplicable=["some:other/scenario"],
            )

    def test_skip_inapplicable_drops_scenarios_and_reports_them(self):
        skipped = []
        rows = run_scenario_suite(
            [
                "hypercube:d=3/circular/sizes:1",
                "hypercube:d=3/kernel/sizes:1",
            ],
            samples=4,
            seed=0,
            skip_inapplicable=True,
            skipped=skipped,
        )
        assert [row.scenario for row in rows] == ["hypercube:d=3/kernel/sizes:1"]
        assert len(skipped) == 1
        scenario, reason = skipped[0]
        assert scenario.canonical() == "hypercube:d=3/circular/sizes:1"
        assert "neighbourhood set" in reason

    def test_skip_inapplicable_store_resume_stays_byte_identical(self, tmp_path):
        from repro.results import ResultStore
        from repro.scenarios import suite_manifest

        specs = [
            "hypercube:d=3/circular/sizes:1",
            "hypercube:d=3/kernel/sizes:1",
        ]
        run = suite_manifest(specs, 4, 0, None)
        path = tmp_path / "rows.jsonl"
        with ResultStore.open(str(path), run) as store:
            run_scenario_suite(
                specs, samples=4, seed=0, store=store, skip_inapplicable=True
            )
        full_text = path.read_text()
        # Resume against the complete store: the dropped scenario is
        # re-dropped (construction is deterministic) and nothing changes.
        with ResultStore.open(str(path), run) as store:
            resumed = run_scenario_suite(
                specs, samples=4, seed=0, store=store, skip_inapplicable=True
            )
        assert len(resumed) == 1
        assert path.read_text() == full_text

    def test_strategy_recorded_in_suite_records(self):
        rows = run_scenario_suite(
            self._scenarios(), samples=4, seed=0
        )
        strategies = {row.record()["strategy"] for row in rows}
        assert strategies == {"kernel", "circular"}


class TestSharedIndexPayload:
    def test_shared_payload_rows_match_rebuild_rows(self):
        shared = _rows(SMALL_SCENARIOS, samples=8, seed=3, workers=2)
        sequential = _rows(SMALL_SCENARIOS, samples=8, seed=3)
        assert shared == sequential

    def test_initializer_installs_indexes(self):
        from repro.faults import engine as engine_module

        payload = {"spec-a": object()}
        engine_module._install_indexes(payload)
        try:
            assert engine_module._INDEXES is payload
        finally:
            engine_module._install_indexes({})

    def test_pool_receives_the_slim_indexes(self, monkeypatch):
        """The supervisor's pool gets one slim index per scenario."""
        import multiprocessing

        from repro.faults import engine as engine_module

        recorded = {}

        def refusing_pool(workers, initializer=None, initargs=()):
            recorded["initializer"] = initializer
            recorded["initargs"] = initargs
            raise OSError("payload recorded; degrade to in-process")

        monkeypatch.setattr(multiprocessing, "Pool", refusing_pool)
        pooled = _rows(SMALL_SCENARIOS, samples=8, seed=3, workers=2)
        assert pooled == _rows(SMALL_SCENARIOS, samples=8, seed=3)
        assert recorded["initializer"] is engine_module._install_indexes
        (indexes,) = recorded["initargs"]
        assert sorted(indexes) == sorted(
            parse_scenario(spec).canonical() for spec in SMALL_SCENARIOS
        )
        for index in indexes.values():
            assert index.graph is None and index.routing is None
        # In-process tasks read the suite's own dict: nothing is installed.
        assert engine_module._INDEXES == {}


class TestSharedTaskPath:
    """Suite campaigns run through the engine's shards, tasks and worker."""

    SPEC = "circulant:n=96,offsets=1+2/kernel/sizes:5,6,7,8,9,10"

    def test_inprocess_campaign_is_one_refilled_kernel_call(self, monkeypatch):
        from repro.core import RouteIndex
        from repro.core.np_kernel import numpy_available

        if not numpy_available():
            pytest.skip("numpy backend not available")
        calls = []
        batched = RouteIndex.surviving_diameters

        def spy(self, fault_sets, cap=None):
            fault_sets = list(fault_sets)
            values = batched(self, fault_sets, cap=cap)
            calls.append((self, fault_sets, self._np_kernel._last_level))
            return values

        monkeypatch.setattr(RouteIndex, "surviving_diameters", spy)
        rows = _rows([self.SPEC], samples=200, seed=7)
        assert [len(fault_sets) for _index, fault_sets, _levels in calls] == [200] * 6
        # 32-set calls over the same sets advance more levels: their lanes
        # wait for each chunk's deepest set instead of refilling.
        index = calls[0][0]
        assert index.backend == "numpy"
        grouped = sum(levels for _index, _sets, levels in calls)
        chunked = 0
        for _index, fault_sets, _levels in calls:
            for start in range(0, len(fault_sets), 32):
                batched(index, fault_sets[start : start + 32])
                chunked += index._np_kernel._last_level
        assert grouped < chunked
        assert rows == _rows([self.SPEC], samples=200, seed=7, workers=2)


class TestBuildsEachScenarioOnce:
    GRID = "cycle:n=10..21/kernel/sizes:1-2"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_scenario_is_constructed_once(
        self, workers, tmp_path, monkeypatch
    ):
        from repro.scenarios import expand_grids
        from repro.scenarios import spec as spec_module
        from repro.scenarios import suite as suite_module

        log = tmp_path / "builds.log"

        def counting(original):
            def build_routing(graph, *args, **kwargs):
                # A file, so constructions in worker processes count too.
                with open(log, "a") as handle:
                    handle.write(f"{graph.number_of_nodes()}\n")
                return original(graph, *args, **kwargs)

            return build_routing

        for module in (suite_module, spec_module):
            monkeypatch.setattr(
                module, "build_routing", counting(module.build_routing)
            )
        scenarios = expand_grids([self.GRID])
        assert len(scenarios) == 12
        rows = run_scenario_suite(scenarios, samples=4, seed=0, workers=workers)
        assert len(rows) == 24
        built = sorted(int(line) for line in log.read_text().split())
        assert built == list(range(10, 22))


class TestGreedyProbe:
    def test_greedy_adds_one_sample_per_sizes_campaign(self):
        plain = run_scenario_suite(SMALL_SCENARIOS, samples=6, seed=0)
        augmented = run_scenario_suite(
            SMALL_SCENARIOS, samples=6, seed=0, greedy=True
        )
        for before, after in zip(plain, augmented):
            is_sizes_probe = (
                "sizes:" in before.scenario and before.campaign.fault_size > 0
            )
            if is_sizes_probe:
                assert after.campaign.samples == before.campaign.samples + 1
            else:
                # exhaustive / random-p campaigns are untouched by --greedy.
                assert after.campaign.samples == before.campaign.samples

    def test_greedy_rows_carry_candidate_limit(self):
        rows = run_scenario_suite(
            ["hypercube:d=3/kernel/sizes:1,2"], samples=4, seed=2,
            greedy=True, candidate_limit=6,
        )
        for row in rows:
            record = row.record()
            assert record["candidate_limit"] == 6
            assert record["backend"] in ("bitset", "numpy")
        plain = run_scenario_suite(
            ["hypercube:d=3/kernel/sizes:1,2"], samples=4, seed=2
        )
        for row in plain:
            assert row.record()["candidate_limit"] is None

    def test_greedy_worst_at_least_sampled_worst(self):
        plain = run_scenario_suite(
            ["circulant:n=12,offsets=1+2/kernel/sizes:2"], samples=5, seed=1
        )
        augmented = run_scenario_suite(
            ["circulant:n=12,offsets=1+2/kernel/sizes:2"], samples=5, seed=1,
            greedy=True,
        )
        assert (
            augmented[0].campaign.max_diameter >= plain[0].campaign.max_diameter
        )

    def test_greedy_rows_deterministic_across_workers(self):
        kwargs = dict(samples=6, seed=5, greedy=True, candidate_limit=5)
        sequential = _rows(SMALL_SCENARIOS, **kwargs)
        parallel = _rows(SMALL_SCENARIOS, workers=2, **kwargs)
        assert sequential == parallel

    def test_greedy_store_resume_is_byte_identical(self, tmp_path):
        from repro.results import ResultStore
        from repro.scenarios.suite import suite_manifest

        scenarios = ["hypercube:d=3/kernel/sizes:1,2"]
        run = suite_manifest(scenarios, 4, 3, greedy=True, candidate_limit=6)
        full_path = tmp_path / "full.jsonl"
        with ResultStore.open(str(full_path), run) as store:
            run_scenario_suite(
                scenarios, samples=4, seed=3, store=store,
                greedy=True, candidate_limit=6,
            )
        # Truncate to the manifest plus the first row and resume.
        resumed_path = tmp_path / "resumed.jsonl"
        lines = full_path.read_text().splitlines(keepends=True)
        resumed_path.write_text("".join(lines[:2]))
        with ResultStore.open(str(resumed_path), run) as store:
            run_scenario_suite(
                scenarios, samples=4, seed=3, store=store,
                greedy=True, candidate_limit=6,
            )
        assert resumed_path.read_text() == full_path.read_text()

    def test_greedy_manifest_parameters_gate_resume(self, tmp_path):
        from repro.results import ResultStore, ResultStoreError
        from repro.scenarios.suite import suite_manifest

        scenarios = ["hypercube:d=3/kernel/sizes:1"]
        greedy_run = suite_manifest(scenarios, 4, 0, greedy=True)
        plain_run = suite_manifest(scenarios, 4, 0)
        assert greedy_run != plain_run
        path = tmp_path / "store.jsonl"
        ResultStore.open(str(path), greedy_run).close()
        with pytest.raises(ResultStoreError, match="different .*run"):
            ResultStore.open(str(path), plain_run)
