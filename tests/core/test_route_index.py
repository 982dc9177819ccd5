"""Unit tests for the precomputed route index (incremental fast path)."""

import pytest

from repro.core import (
    RouteIndex,
    kernel_multirouting,
    kernel_routing,
    surviving_diameter,
    surviving_route_graph,
)
from repro.exceptions import FaultModelError
from repro.graphs import generators


@pytest.fixture(scope="module")
def indexed_routing():
    graph = generators.circulant_graph(14, [1, 2])
    result = kernel_routing(graph)
    return graph, result.routing, RouteIndex(graph, result.routing)


class TestRouteIndexBasics:
    def test_base_route_graph_matches_fault_free_naive(self, indexed_routing):
        graph, routing, index = indexed_routing
        assert index.base_route_graph() == surviving_route_graph(graph, routing, ())

    def test_pairs_through_covers_every_route_node(self, indexed_routing):
        graph, routing, index = indexed_routing
        for (source, target), path in routing.items():
            for node in path:
                assert (source, target) in index.pairs_through(node)

    def test_pairs_through_unused_node_is_empty(self, indexed_routing):
        graph, routing, index = indexed_routing
        # Routes only visit graph nodes, so a non-node has no pairs.
        assert index.pairs_through("not-a-node") == frozenset()

    def test_matches_identity(self, indexed_routing):
        graph, routing, index = indexed_routing
        assert index.matches(graph, routing)
        assert not index.matches(graph, routing.copy())

    def test_unknown_fault_rejected(self, indexed_routing):
        graph, routing, index = indexed_routing
        with pytest.raises(FaultModelError):
            index.surviving_diameter({"ghost"})

    def test_mismatched_index_rejected_by_surviving_helpers(self, indexed_routing):
        graph, routing, index = indexed_routing
        other = generators.cycle_graph(14)
        other_result = kernel_routing(other)
        with pytest.raises(ValueError):
            surviving_diameter(other, other_result.routing, (), index=index)
        with pytest.raises(ValueError):
            surviving_route_graph(other, other_result.routing, (), index=index)


class TestKernelSelection:
    def test_capped_value_compares_like_the_true_diameter(self, indexed_routing):
        graph, routing, index = indexed_routing
        for faults in [(), {0, 5}, {1, 6, 9}]:
            exact = index.surviving_diameter(faults)
            for cap in [0, 1, 2, 3, 10, float("inf")]:
                capped = index.surviving_diameter(faults, cap=cap)
                assert (capped <= cap) == (exact <= cap)
                if capped <= cap:
                    assert capped == exact


class TestDiameterAtMost:
    def test_matches_diameter_comparison(self, indexed_routing):
        graph, routing, index = indexed_routing
        batteries = [(), {0}, {0, 5}, {1, 6, 9}, set(graph.nodes()[:7])]
        for faults in batteries:
            exact = index.surviving_diameter(faults)
            for bound in [0, 1, 2, 3, 4, 10, float("inf")]:
                assert index.surviving_diameter_at_most(faults, bound) == (
                    exact <= bound
                )

    def test_disconnected_only_within_infinite_bound(self, indexed_routing):
        graph, routing, index = indexed_routing
        everyone = set(graph.nodes())
        assert index.surviving_diameter_at_most(everyone, float("inf"))
        assert not index.surviving_diameter_at_most(everyone, 10 ** 9)

    def test_nan_bound_is_never_satisfied(self, indexed_routing):
        graph, routing, index = indexed_routing
        assert not index.surviving_diameter_at_most((), float("nan"))

    def test_module_level_wrapper(self, indexed_routing):
        from repro.core import surviving_diameter_at_most

        graph, routing, index = indexed_routing
        for faults in [(), {0, 5}]:
            exact = surviving_diameter(graph, routing, faults)
            for bound in [1, 2, 3, float("inf")]:
                expected = exact <= bound
                assert surviving_diameter_at_most(
                    graph, routing, faults, bound
                ) == expected
                assert surviving_diameter_at_most(
                    graph, routing, faults, bound, index=index
                ) == expected


class TestEvalCursor:
    def test_cursor_matches_fresh_evaluation(self, indexed_routing):
        graph, routing, index = indexed_routing
        cursor = index.cursor({0, 5})
        assert cursor.diameter() == index.surviving_diameter({0, 5})
        assert cursor.surviving_route_graph() == index.surviving_route_graph({0, 5})
        assert cursor.faults == frozenset({0, 5})

    def test_with_added_equals_from_scratch(self, indexed_routing):
        graph, routing, index = indexed_routing
        cursor = index.cursor({0})
        for extra in [1, 5, 9]:
            derived = cursor.with_added(extra)
            faults = {0, extra}
            assert derived.faults == frozenset(faults)
            assert derived.diameter() == index.surviving_diameter(faults)
            assert derived.surviving_route_graph() == index.surviving_route_graph(
                faults
            )

    def test_with_added_chains(self, indexed_routing):
        graph, routing, index = indexed_routing
        cursor = index.cursor(())
        faults = set()
        for node in [3, 8, 1, 12]:
            cursor = cursor.with_added(node)
            faults.add(node)
            assert cursor.diameter() == index.surviving_diameter(faults)

    def test_with_added_existing_fault_returns_distinct_cursor(self, indexed_routing):
        # Regression: with_added on an already-faulty node used to return
        # ``self``, so memoising on the "child" mutated the parent cursor.
        graph, routing, index = indexed_routing
        cursor = index.cursor({4})
        twin = cursor.with_added(4)
        assert twin is not cursor
        assert twin.faults == cursor.faults
        assert twin.diameter() == cursor.diameter()

    def test_with_added_unknown_node_rejected(self, indexed_routing):
        graph, routing, index = indexed_routing
        with pytest.raises(FaultModelError):
            index.cursor(()).with_added("ghost")

    def test_parent_not_mutated_by_derivation(self, indexed_routing):
        graph, routing, index = indexed_routing
        cursor = index.cursor({0})
        before = cursor.diameter()
        for extra in [1, 2, 3]:
            cursor.with_added(extra).diameter()
        assert cursor.diameter() == before
        assert cursor.faults == frozenset({0})

    def test_disconnection_propagates_through_with_added(self, indexed_routing):
        graph, routing, index = indexed_routing
        nodes = graph.nodes()
        # Kill all but three nodes: the surviving route graph of the kernel
        # routing on the circulant stays evaluable and derivations remain
        # exactly equivalent to fresh evaluations, connected or not.
        base = set(nodes[:10])
        cursor = index.cursor(base)
        for extra in nodes[10:12]:
            derived = cursor.with_added(extra)
            assert derived.diameter() == index.surviving_diameter(base | {extra})

    def test_cursor_diameter_at_most(self, indexed_routing):
        graph, routing, index = indexed_routing
        cursor = index.cursor({0, 5})
        exact = cursor.diameter()
        fresh = index.cursor({0, 5})
        for bound in [0, 1, 2, 3, 10, float("inf")]:
            assert fresh.diameter_at_most(bound) == (exact <= bound)


class TestPickling:
    def test_roundtrip_preserves_evaluation(self, indexed_routing):
        import pickle

        graph, routing, index = indexed_routing
        clone = pickle.loads(pickle.dumps(index))
        for faults in [(), {0, 5}, set(graph.nodes()[:7])]:
            assert clone.surviving_diameter(faults) == index.surviving_diameter(faults)
            assert clone.surviving_route_graph(faults) == index.surviving_route_graph(
                faults
            )


class TestRouteIndexEquivalence:
    def test_graph_and_diameter_match_naive(self, indexed_routing):
        graph, routing, index = indexed_routing
        for faults in [(), {0}, {0, 5}, {1, 6, 9}, set(graph.nodes()[:7])]:
            faults = set(faults)
            assert surviving_route_graph(
                graph, routing, faults, index=index
            ) == surviving_route_graph(graph, routing, faults)
            assert surviving_diameter(
                graph, routing, faults, index=index
            ) == surviving_diameter(graph, routing, faults)

    def test_all_nodes_faulty(self, indexed_routing):
        graph, routing, index = indexed_routing
        everyone = set(graph.nodes())
        assert index.surviving_diameter(everyone) == float("inf")
        assert index.surviving_route_graph(everyone).number_of_nodes() == 0

    def test_single_survivor_has_diameter_zero(self, indexed_routing):
        graph, routing, index = indexed_routing
        nodes = graph.nodes()
        faults = set(nodes[1:])
        assert index.surviving_diameter(faults) == 0

    def test_multirouting_any_route_survival(self):
        graph = generators.circulant_graph(12, [1, 2])
        result = kernel_multirouting(graph)
        index = RouteIndex(graph, result.routing)
        for faults in [(), {0}, {0, 3}, {2, 5, 8}]:
            faults = set(faults)
            assert surviving_route_graph(
                graph, result.routing, faults, index=index
            ) == surviving_route_graph(graph, result.routing, faults)
            assert surviving_diameter(
                graph, result.routing, faults, index=index
            ) == surviving_diameter(graph, result.routing, faults)
