"""Unit tests for fault-set generation strategies (exhaustive, random, targeted, greedy)."""

import math
from unittest import mock

import pytest

from repro.core import Routing, kernel_routing, surviving_diameter
from repro.faults import (
    adversary,
    all_fault_sets,
    combined_fault_sets,
    count_fault_sets,
    greedy_adversarial_fault_set,
    random_fault_sets,
    targeted_fault_sets,
)
from repro.graphs import generators


def _sequential(search):
    """``search`` with each round evaluated one uncapped candidate at a time."""

    def run(*args, **kwargs):
        with mock.patch.object(adversary, "_batched_round", adversary._sequential_round):
            return search(*args, **kwargs)

    return run


@pytest.fixture(scope="module")
def cycle_routing():
    graph = generators.cycle_graph(10)
    return graph, kernel_routing(graph)


class TestExhaustiveEnumeration:
    def test_all_sizes_up_to_bound(self):
        sets = list(all_fault_sets(range(5), 2))
        assert len(sets) == 1 + 5 + 10
        sizes = {len(fault_set) for fault_set in sets}
        assert sizes == {0, 1, 2}

    def test_exact_size_only(self):
        sets = list(all_fault_sets(range(5), 2, include_smaller=False))
        assert len(sets) == 10
        assert all(len(fault_set) == 2 for fault_set in sets)

    def test_count_matches_enumeration(self):
        assert count_fault_sets(5, 2) == 16
        assert count_fault_sets(5, 2, include_smaller=False) == math.comb(5, 2)
        assert count_fault_sets(10, 0) == 1

    def test_deterministic_order(self):
        first = [fs.nodes() for fs in all_fault_sets(range(4), 1)]
        second = [fs.nodes() for fs in all_fault_sets(range(4), 1)]
        assert first == second


class TestRandomFaultSets:
    def test_size_and_count(self):
        sets = list(random_fault_sets(range(20), 3, 7, seed=1))
        assert len(sets) == 7
        assert all(len(fault_set) == 3 for fault_set in sets)

    def test_reproducible_with_seed(self):
        first = [fs.nodes() for fs in random_fault_sets(range(20), 3, 5, seed=42)]
        second = [fs.nodes() for fs in random_fault_sets(range(20), 3, 5, seed=42)]
        assert first == second

    def test_exclude(self):
        sets = list(random_fault_sets(range(10), 2, 20, seed=0, exclude=[0, 1, 2]))
        for fault_set in sets:
            assert not (set(fault_set) & {0, 1, 2})

    def test_too_large_size_yields_nothing(self):
        assert list(random_fault_sets(range(3), 5, 10, seed=0)) == []


class TestTargetedFaultSets:
    def test_concentrator_subsets_present(self, cycle_routing):
        graph, result = cycle_routing
        sets = list(
            targeted_fault_sets(graph, 1, concentrator=result.concentrator, routing=result.routing)
        )
        concentrator_sets = [
            fs for fs in sets if "concentrator" in fs.description
        ]
        assert concentrator_sets
        for fault_set in concentrator_sets:
            assert set(fault_set) <= set(result.concentrator)

    def test_neighbourhood_attacks_present(self, cycle_routing):
        graph, result = cycle_routing
        sets = list(targeted_fault_sets(graph, 2, routing=result.routing))
        neighbour_sets = [fs for fs in sets if "neighbours" in fs.description]
        assert neighbour_sets
        for fault_set in neighbour_sets:
            assert len(fault_set) == 2

    def test_route_attacks_present(self, cycle_routing):
        graph, result = cycle_routing
        sets = list(targeted_fault_sets(graph, 1, routing=result.routing))
        assert any("routes of" in fs.description for fs in sets)

    def test_zero_size_yields_nothing(self, cycle_routing):
        graph, result = cycle_routing
        assert list(targeted_fault_sets(graph, 0, concentrator=result.concentrator)) == []


class TestGreedyAdversary:
    def test_respects_size(self, cycle_routing):
        graph, result = cycle_routing
        fault_set = greedy_adversarial_fault_set(graph, result.routing, 2, seed=0)
        assert len(fault_set) == 2
        assert fault_set.description == "greedy adversarial"

    def test_at_least_as_bad_as_no_faults(self, cycle_routing):
        graph, result = cycle_routing
        fault_set = greedy_adversarial_fault_set(graph, result.routing, 1, seed=0)
        assert surviving_diameter(graph, result.routing, fault_set) >= surviving_diameter(
            graph, result.routing, ()
        )

    def test_zero_size(self, cycle_routing):
        graph, result = cycle_routing
        assert len(greedy_adversarial_fault_set(graph, result.routing, 0, seed=0)) == 0

    @pytest.mark.parametrize("limit", [0, -1])
    def test_candidate_limit_below_one_rejected(self, cycle_routing, limit):
        """A round must sample at least one candidate (0 used to stop at once)."""
        from repro.core import RouteIndex
        from repro.faults.adversary import greedy_fault_set_from_index

        graph, result = cycle_routing
        with pytest.raises(ValueError, match="candidate_limit must be at least 1"):
            greedy_adversarial_fault_set(
                graph, result.routing, 2, candidate_limit=limit, seed=0
            )
        index = RouteIndex(graph, result.routing)
        with pytest.raises(ValueError, match="candidate_limit must be at least 1"):
            greedy_fault_set_from_index(index, 2, candidate_limit=limit, seed=0)

    def test_prefers_disconnection_when_no_finite_candidate_improves(self):
        """Above the connectivity, ``inf`` is the true worst case.

        On an edge-only routed cycle, the second fault either shaves the
        surviving path (finite diameter *smaller* than the incumbent) or
        disconnects it (``inf``).  The greedy adversary must take the
        disconnection instead of settling for the finite plateau.
        """
        graph = generators.cycle_graph(8)
        routing = Routing(graph, name="edges-only")
        routing.add_all_edge_routes()
        fault_set = greedy_adversarial_fault_set(graph, routing, 2, seed=0)
        assert len(fault_set) == 2
        assert surviving_diameter(graph, routing, fault_set) == float("inf")

    def test_keeps_improving_finite_diameters_below_connectivity(self, cycle_routing):
        """Below the connectivity no candidate disconnects, so the greedy
        search must still chase the largest finite diameter."""
        graph, result = cycle_routing
        fault_set = greedy_adversarial_fault_set(graph, result.routing, 1, seed=0)
        assert surviving_diameter(graph, result.routing, fault_set) < float("inf")

    def test_matches_index_free_run(self, cycle_routing):
        """Passing a pre-built index must not change the selected fault set."""
        from repro.core import RouteIndex

        graph, result = cycle_routing
        index = RouteIndex(graph, result.routing)
        with_index = greedy_adversarial_fault_set(
            graph, result.routing, 2, seed=5, index=index
        )
        without = greedy_adversarial_fault_set(graph, result.routing, 2, seed=5)
        assert with_index.nodes() == without.nodes()


class TestCombinedBattery:
    def test_includes_baseline_and_unique_sets(self, cycle_routing):
        graph, result = cycle_routing
        battery = combined_fault_sets(
            graph, result.routing, 1, concentrator=result.concentrator, random_count=10, seed=3
        )
        assert battery[0].nodes() == frozenset()
        keys = [fs.nodes() for fs in battery]
        assert len(keys) == len(set(keys))

    def test_sizes_bounded(self, cycle_routing):
        graph, result = cycle_routing
        battery = combined_fault_sets(graph, result.routing, 2, seed=1)
        assert all(len(fs) <= 2 for fs in battery)

    def test_greedy_can_be_disabled(self, cycle_routing):
        graph, result = cycle_routing
        battery = combined_fault_sets(graph, result.routing, 1, include_greedy=False, seed=1)
        assert all(fs.description != "greedy adversarial" for fs in battery)


class TestBatchedGreedy:
    """The batched greedy rounds must reproduce the sequential ones exactly."""

    def test_batched_matches_sequential(self, cycle_routing):
        graph, result = cycle_routing
        for seed in (0, 3, 11):
            batched = greedy_adversarial_fault_set(graph, result.routing, 3, seed=seed)
            sequential = _sequential(greedy_adversarial_fault_set)(
                graph, result.routing, 3, seed=seed
            )
            assert batched.nodes() == sequential.nodes()

    def test_batched_matches_sequential_under_candidate_limit(self, cycle_routing):
        graph, result = cycle_routing
        for limit in (2, 4, 7):
            batched = greedy_adversarial_fault_set(
                graph, result.routing, 2, candidate_limit=limit, seed=9
            )
            sequential = _sequential(greedy_adversarial_fault_set)(
                graph, result.routing, 2, candidate_limit=limit, seed=9
            )
            assert batched.nodes() == sequential.nodes()

    def test_index_entry_point_matches_graph_entry_point_diameter(self, cycle_routing):
        """greedy_fault_set_from_index walks the repr-sorted node pool, so
        its picks may differ from the graph-order walk — but both must be
        valid greedy sets of the requested size."""
        from repro.core import RouteIndex
        from repro.faults.adversary import greedy_fault_set_from_index

        graph, result = cycle_routing
        index = RouteIndex(graph, result.routing)
        fault_set = greedy_fault_set_from_index(index, 2, seed=4)
        assert len(fault_set) == 2
        assert fault_set.nodes() <= frozenset(graph.nodes())

    def test_index_entry_point_batched_matches_sequential(self, cycle_routing):
        from repro.core import RouteIndex
        from repro.faults.adversary import greedy_fault_set_from_index

        graph, result = cycle_routing
        index = RouteIndex(graph, result.routing)
        for seed in (1, 6):
            assert greedy_fault_set_from_index(index, 3, seed=seed).nodes() == _sequential(
                greedy_fault_set_from_index
            )(index, 3, seed=seed).nodes()

    def test_combined_battery_candidate_limit_passthrough(self, cycle_routing):
        """candidate_limit reaches the greedy member of the combined battery."""
        graph, result = cycle_routing
        full = combined_fault_sets(graph, result.routing, 2, seed=2)
        limited = combined_fault_sets(
            graph, result.routing, 2, seed=2, candidate_limit=1
        )
        # Non-greedy members are identical; only the greedy pick may move.
        greedy_full = [fs for fs in full if fs.description == "greedy adversarial"]
        greedy_limited = [
            fs for fs in limited if fs.description == "greedy adversarial"
        ]
        assert len(greedy_full) <= 1 and len(greedy_limited) <= 1
        rest_full = [fs.nodes() for fs in full if fs.description != "greedy adversarial"]
        rest_limited = [
            fs.nodes() for fs in limited if fs.description != "greedy adversarial"
        ]
        assert rest_full == rest_limited
