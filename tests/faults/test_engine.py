"""Unit tests for the sharded, indexed campaign engine.

The central contract under test is determinism: the same integer seed must
produce byte-identical campaign rows no matter how many worker processes
evaluate the battery, because sharding and per-shard seeding depend only on
the battery and chunk size — never on the pool.
"""

import random as _random

import pytest

from repro.core import kernel_routing, worst_case_diameter
from repro.exceptions import FaultModelError
from repro.faults import (
    CampaignEngine,
    FaultSet,
    combined_fault_sets,
    run_campaign,
    shard_seed,
    sweep_fault_sizes,
)
from repro.graphs import generators
from repro.runtime import TaskFailedError
from repro.runtime import supervisor as supervisor_module


@pytest.fixture(scope="module")
def workload():
    graph = generators.circulant_graph(14, [1, 2])
    result = kernel_routing(graph)
    return graph, result.routing


def _rows(campaigns):
    return [
        (campaign.as_row(), campaign.worst_fault_set and campaign.worst_fault_set.nodes())
        for campaign in campaigns
    ]


class TestShardSeed:
    def test_stable_across_calls(self):
        assert shard_seed(7, "size=3", 2) == shard_seed(7, "size=3", 2)

    def test_distinct_per_shard_and_tag(self):
        seeds = {shard_seed(7, tag, shard) for tag in ("a", "b") for shard in range(4)}
        assert len(seeds) == 8


class TestEngineDeterminism:
    def test_run_campaign_same_rows_for_any_worker_count(self, workload):
        graph, routing = workload
        sequential = CampaignEngine(graph, routing, workers=1)
        parallel = CampaignEngine(graph, routing, workers=3)
        first = sequential.run_campaign(2, samples=40, seed=11)
        second = parallel.run_campaign(2, samples=40, seed=11)
        assert first == second
        assert first.worst_fault_set.nodes() == second.worst_fault_set.nodes()

    def test_sweep_same_rows_for_any_worker_count(self, workload):
        graph, routing = workload
        sequential = CampaignEngine(graph, routing, workers=1)
        parallel = CampaignEngine(graph, routing, workers=2)
        assert _rows(
            sequential.sweep_fault_sizes([0, 1, 2, 3], samples=15, seed=5)
        ) == _rows(parallel.sweep_fault_sizes([0, 1, 2, 3], samples=15, seed=5))

    def test_module_level_wrappers_forward_workers(self, workload):
        graph, routing = workload
        assert run_campaign(graph, routing, 2, samples=20, seed=9) == run_campaign(
            graph, routing, 2, samples=20, seed=9, workers=2
        )
        assert _rows(
            sweep_fault_sizes(graph, routing, [1, 2], samples=10, seed=3)
        ) == _rows(sweep_fault_sizes(graph, routing, [1, 2], samples=10, seed=3, workers=2))

    def test_explicit_battery_same_for_any_worker_count(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=20, seed=0)
        sequential = CampaignEngine(graph, routing, workers=1)
        parallel = CampaignEngine(graph, routing, workers=2)
        assert list(sequential.evaluate(battery)) == list(parallel.evaluate(battery))

    def test_chunk_size_does_not_change_explicit_outcomes(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=20, seed=1)
        small = CampaignEngine(graph, routing, chunk_size=3)
        large = CampaignEngine(graph, routing, chunk_size=500)
        assert list(small.evaluate(battery)) == list(large.evaluate(battery))

    def test_duplicate_sweep_sizes_draw_independent_batteries(self, workload):
        """Repeating a size in a sweep must sample fresh fault sets, not
        replay the first campaign (seeds are derived per position)."""
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        first, second = engine.sweep_fault_sizes([3, 3], samples=8, seed=0)
        assert first.worst_fault_set.nodes() != second.worst_fault_set.nodes()

    def test_pool_reused_across_campaigns_and_closeable(self, workload):
        graph, routing = workload
        with CampaignEngine(graph, routing, workers=2) as engine:
            engine.run_campaign(1, samples=5, seed=0)
            supervisor = engine._runner
            pool = supervisor._pool
            assert pool is not None
            engine.run_campaign(2, samples=5, seed=0)
            assert engine._runner is supervisor
            assert supervisor._pool is pool
        assert supervisor._pool is None
        # Engine remains usable after close (a fresh pool is started).
        result = engine.run_campaign(1, samples=5, seed=0)
        assert result.samples == 5
        engine.close()

    def test_random_instance_seed_keeps_legacy_stream(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        first = engine.run_campaign(2, samples=10, seed=_random.Random(4))
        second = engine.run_campaign(2, samples=10, seed=_random.Random(4))
        assert first == second


class TestExhaustiveShards:
    def test_shards_reproduce_all_fault_sets_order(self, workload):
        from repro.faults import all_fault_sets

        graph, routing = workload
        engine = CampaignEngine(graph, routing, chunk_size=7)
        sharded = [
            fault_set.nodes()
            for shard in engine._exhaustive_shards(2)
            for fault_set in shard.materialise(graph)
        ]
        reference = [fs.nodes() for fs in all_fault_sets(graph.nodes(), 2)]
        assert sharded == reference

    def test_combinations_slice_matches_islice_reference(self):
        import itertools

        from repro.faults.engine import _combinations_slice

        pool = list(range(9))
        for size in range(0, 5):
            reference = list(itertools.combinations(pool, size))
            for start in range(0, len(reference) + 2):
                for count in (1, 3, len(reference) + 5):
                    expected = reference[start : start + count]
                    assert list(_combinations_slice(pool, size, start, count)) == expected

    def test_shard_boundaries_deterministic(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing, chunk_size=5)
        first = [
            (shard.exhaustive_size, shard.start, shard.count)
            for shard in engine._exhaustive_shards(2)
        ]
        second = [
            (shard.exhaustive_size, shard.start, shard.count)
            for shard in engine._exhaustive_shards(2)
        ]
        assert first == second
        assert all(size is not None for size, _, _ in first)

    def test_exhaustive_worst_case_matches_explicit_battery(self, workload):
        from repro.faults import all_fault_sets

        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        battery = list(all_fault_sets(graph.nodes(), 2))
        exact, exact_set, exact_count = engine.worst_case(battery)
        worst, worst_set, evaluated, holds = engine.exhaustive_worst_case(
            2, bound=float("inf")
        )
        assert holds
        assert evaluated == exact_count == len(battery)
        assert worst == exact
        assert worst_set.nodes() == exact_set.nodes()

    def test_exhaustive_parallel_matches_sequential(self, workload):
        graph, routing = workload
        sequential = CampaignEngine(graph, routing, workers=1)
        with CampaignEngine(graph, routing, workers=2) as parallel:
            seq = sequential.exhaustive_worst_case(2, bound=float("inf"))
            par = parallel.exhaustive_worst_case(2, bound=float("inf"))
        assert seq[0] == par[0]
        assert seq[1].nodes() == par[1].nodes()
        assert seq[2:] == par[2:]


class TestBoundedScan:
    def test_holding_bound_evaluates_everything_exactly(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        battery = combined_fault_sets(graph, routing, 2, random_count=10, seed=4)
        exact, exact_set, count = engine.worst_case(battery)
        worst, worst_set, evaluated, holds = engine.bounded_worst_case(
            battery, bound=exact
        )
        assert holds
        assert evaluated == count
        assert worst == exact
        assert worst_set.nodes() == exact_set.nodes()

    def test_violation_stops_at_first_witness(self):
        from repro.core import Routing
        from repro.graphs import generators as _generators

        # Edge-routed C_8: diameter 4 fault-free, 6 after any single fault.
        graph = _generators.cycle_graph(8)
        routing = Routing(graph, name="edges-only")
        routing.add_all_edge_routes()
        engine = CampaignEngine(graph, routing)
        battery = [FaultSet(()), FaultSet({0}), FaultSet({1}), FaultSet({2})]
        worst, worst_set, evaluated, holds = engine.bounded_worst_case(battery, 4)
        assert not holds
        assert worst_set.nodes() == frozenset({0})
        assert evaluated == 2  # empty set + the first violating set
        assert worst == 6  # exact witness diameter, not just "> bound"

    def test_parallel_scan_matches_sequential(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=12, seed=8)
        sequential = CampaignEngine(graph, routing, workers=1)
        with CampaignEngine(graph, routing, workers=2) as parallel:
            for bound in [2, 3, float("inf")]:
                seq = sequential.bounded_worst_case(battery, bound)
                par = parallel.bounded_worst_case(battery, bound)
                assert seq[0] == par[0]
                assert (seq[1] and seq[1].nodes()) == (par[1] and par[1].nodes())
                assert seq[2:] == par[2:]


def _reference_scan(index, battery, bound):
    """``_bounded_scan``'s contract, one ``surviving_diameter`` call per set."""
    worst, worst_set = -1.0, None
    for evaluated, fault_set in enumerate(battery, 1):
        value = index.surviving_diameter(fault_set.nodes())
        if value > bound:
            return value, fault_set, evaluated, False
        if value > worst:
            worst, worst_set = value, fault_set
    return worst, worst_set, len(battery), True


class TestInProcessTasks:
    """In-process tasks group consecutive shards into one batched call."""

    def test_sweep_battery_is_one_call_per_size(self, workload, monkeypatch):
        from repro.core import RouteIndex

        graph, routing = workload
        calls = []
        batched = RouteIndex.surviving_diameters

        def spy(self, fault_sets, cap=None):
            fault_sets = list(fault_sets)
            calls.append(len(fault_sets))
            return batched(self, fault_sets, cap=cap)

        monkeypatch.setattr(RouteIndex, "surviving_diameters", spy)
        sizes = [1, 2, 3]
        engine = CampaignEngine(graph, routing)
        rows = _rows(engine.sweep_fault_sizes(sizes, samples=200, seed=4))
        assert calls == [200] * len(sizes)
        with CampaignEngine(graph, routing, workers=2) as parallel:
            assert rows == _rows(parallel.sweep_fault_sizes(sizes, samples=200, seed=4))

    @pytest.mark.parametrize("backend", ["bitset", "numpy"])
    def test_violation_inside_a_task_matches_set_by_set_scan(self, workload, backend):
        from repro.core import RouteIndex
        from repro.core.np_kernel import numpy_available

        if backend == "numpy" and not numpy_available():
            pytest.skip("numpy backend not available")
        graph, routing = workload
        index = RouteIndex(graph, routing, backend=backend)
        rng = _random.Random(6)
        pool = sorted(graph.nodes())
        sets = [FaultSet(rng.sample(pool, 3)) for _ in range(400)]
        values = [index.surviving_diameter(fault_set.nodes()) for fault_set in sets]
        bound = sorted(values)[len(values) // 2]
        holding = [fs for fs, value in zip(sets, values) if value <= bound]
        violating = [fs for fs, value in zip(sets, values) if value > bound]
        # The first violation is set 40, inside the first 256-set task.
        battery = holding[:39] + violating[:1] + sets[:150]
        engine = CampaignEngine(graph, routing, index=index)
        worst, witness, evaluated, holds = engine.bounded_worst_case(battery, bound)
        expected = _reference_scan(index, battery, bound)
        assert (worst, witness.nodes(), evaluated, holds) == (
            expected[0],
            expected[1].nodes(),
            *expected[2:],
        )
        assert evaluated == 40 and not holds
        # Without the violation the scan evaluates and ranks every set.
        result = engine.bounded_worst_case(holding, bound)
        expected = _reference_scan(index, holding, bound)
        assert (result[0], result[1].nodes(), *result[2:]) == (
            expected[0],
            expected[1].nodes(),
            *expected[2:],
        )


class TestIndexShipping:
    def test_prebuilt_index_is_shipped_to_workers(self, workload, monkeypatch):
        """The pool initializer must receive the slim form of the engine's index."""
        graph, routing = workload
        from repro.core import RouteIndex
        from repro.faults import engine as engine_module

        index = RouteIndex(graph, routing)
        engine = CampaignEngine(graph, routing, workers=2, index=index)
        recorded = {}

        class _FakePool:
            def terminate(self):
                pass

            def join(self):
                pass

        def fake_pool_factory(workers, initializer=None, initargs=()):
            recorded["initargs"] = initargs
            initializer(*initargs)
            return _FakePool()

        import multiprocessing

        monkeypatch.setattr(multiprocessing, "Pool", fake_pool_factory)
        try:
            # An empty battery still starts the engine's supervised pool.
            assert list(engine.evaluate([])) == []
        finally:
            engine.close()
        assert len(recorded["initargs"]) == 1
        shipped = recorded["initargs"][0]
        # The slim payload shares the engine index's bitset structures but
        # drops the graph and routing objects (they never cross the boundary).
        assert shipped is not index
        assert shipped.graph is None and shipped.routing is None
        assert shipped._base_rows is index._base_rows
        assert shipped._kill_rows is index._kill_rows
        assert shipped.node_pool == index.node_pool
        assert engine_module._WORKER_INDEX is shipped
        engine_module._WORKER_INDEX = None

    def test_parallel_results_with_prebuilt_index(self, workload):
        graph, routing = workload
        from repro.core import RouteIndex

        index = RouteIndex(graph, routing)
        sequential = CampaignEngine(graph, routing, workers=1, index=index)
        with CampaignEngine(graph, routing, workers=2, index=index) as parallel:
            assert sequential.run_campaign(2, samples=20, seed=3) == parallel.run_campaign(
                2, samples=20, seed=3
            )


class TestEngineSemantics:
    def test_worst_case_matches_tolerance_helper(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=15, seed=2)
        engine = CampaignEngine(graph, routing)
        assert engine.worst_case(battery) == worst_case_diameter(graph, routing, battery)

    def test_parallel_worst_case_matches_sequential(self, workload):
        graph, routing = workload
        battery = combined_fault_sets(graph, routing, 2, random_count=15, seed=2)
        assert worst_case_diameter(graph, routing, battery) == worst_case_diameter(
            graph, routing, battery, workers=2
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_error_is_task_failed_at_any_worker_count(
        self, workload, workers, monkeypatch
    ):
        """A fault set naming a non-node fails the same way in-process and pooled."""
        monkeypatch.setattr(supervisor_module, "BACKOFF_BASE", 0.001)
        graph, routing = workload
        with CampaignEngine(graph, routing, workers=workers) as engine:
            with pytest.raises(TaskFailedError) as info:
                list(engine.evaluate([FaultSet([999])]))
        assert isinstance(info.value.__cause__, FaultModelError)

    def test_empty_battery_rejected(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        with pytest.raises(ValueError):
            engine.run_campaign(1, fault_sets=[])

    def test_oversized_fault_size_rejected(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        with pytest.raises(ValueError):
            engine.run_campaign(graph.number_of_nodes() + 1, samples=5, seed=0)

    def test_invalid_parameters_rejected(self, workload):
        graph, routing = workload
        with pytest.raises(ValueError):
            CampaignEngine(graph, routing, workers=0)
        with pytest.raises(ValueError):
            CampaignEngine(graph, routing, chunk_size=0)

    def test_mismatched_index_rejected(self, workload):
        graph, routing = workload
        other = generators.cycle_graph(10)
        other_routing = kernel_routing(other).routing
        from repro.core import RouteIndex

        with pytest.raises(ValueError):
            CampaignEngine(graph, routing, index=RouteIndex(other, other_routing))

    def test_index_reuse_across_calls(self, workload):
        graph, routing = workload
        from repro.core import RouteIndex

        index = RouteIndex(graph, routing)
        engine = CampaignEngine(graph, routing, index=index)
        assert engine.index is index
        engine.run_campaign(1, samples=5, seed=0)
        assert engine.index is index

    def test_profile_preserves_battery_order(self, workload):
        graph, routing = workload
        battery = [FaultSet({0}), FaultSet({1}), FaultSet({2})]
        profile = CampaignEngine(graph, routing).profile(battery)
        assert [fault_set.nodes() for fault_set, _ in profile] == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]
        assert all(diameter >= 1 for _, diameter in profile)


class TestGreedyAugmentation:
    def test_adversarial_worst_case_returns_exact_diameter(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        diameter, fault_set = engine.adversarial_worst_case(2, seed=0)
        assert len(fault_set) == 2
        assert diameter == engine.index.surviving_diameter(fault_set.nodes())

    def test_greedy_campaign_adds_one_battery_member(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        plain = engine.run_campaign(2, samples=8, seed=4)
        augmented = engine.run_campaign(2, samples=8, seed=4, greedy=True)
        assert plain.samples == 8
        assert augmented.samples == 9
        # The adversarial probe can only worsen (or match) the worst case.
        assert augmented.max_diameter >= plain.max_diameter

    def test_greedy_campaign_stamps_provenance_columns(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        augmented = engine.run_campaign(
            2, samples=5, seed=1, greedy=True, candidate_limit=7
        )
        plain = engine.run_campaign(2, samples=5, seed=1)
        assert augmented.candidate_limit == 7
        assert plain.candidate_limit is None
        assert augmented.eval_backend == engine.index.backend
        record = augmented.record()
        assert record["candidate_limit"] == 7
        assert record["backend"] == engine.index.backend

    def test_greedy_campaign_deterministic_across_workers(self, workload):
        graph, routing = workload
        sequential = CampaignEngine(graph, routing).run_campaign(
            2, samples=10, seed=6, greedy=True
        )
        parallel = CampaignEngine(graph, routing, workers=2).run_campaign(
            2, samples=10, seed=6, greedy=True
        )
        assert sequential.as_row() == parallel.as_row()
        assert sequential.worst_fault_set == parallel.worst_fault_set

    def test_greedy_sweep_passthrough(self, workload):
        graph, routing = workload
        engine = CampaignEngine(graph, routing)
        campaigns = engine.sweep_fault_sizes(
            [0, 2], samples=5, seed=3, greedy=True, candidate_limit=5
        )
        # Size 0 has no greedy probe (nothing to grow); size 2 does.
        assert campaigns[0].samples == 5
        assert campaigns[0].candidate_limit is None
        assert campaigns[1].samples == 6
        assert campaigns[1].candidate_limit == 5

    def test_greedy_round_trips_through_record(self, workload):
        graph, routing = workload
        from repro.faults import CampaignResult

        campaign = CampaignEngine(graph, routing).run_campaign(
            2, samples=5, seed=2, greedy=True
        )
        restored = CampaignResult.from_record(campaign.record())
        assert restored == campaign
        assert restored.candidate_limit == campaign.candidate_limit
        assert restored.eval_backend == campaign.eval_backend
