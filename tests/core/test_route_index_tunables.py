"""RouteIndex BFS strategy: the fixed density rule and its introspection."""

from __future__ import annotations

import pytest

from repro.core import RouteIndex, kernel_routing
from repro.core.route_index import (
    BFS_DENSITY_FACTOR,
    STRATEGY_BATCHED,
    STRATEGY_PER_SOURCE,
)
from repro.core.routing import Routing
from repro.graphs import generators


@pytest.fixture(scope="module")
def workload():
    graph = generators.circulant_graph(24, [1, 2])
    result = kernel_routing(graph)
    return graph, result.routing


def _ring_routing(n: int, extra: int = 0):
    """A cycle routed one hop forward per node: ``n`` arcs, plus ``extra``
    backward hops (nodes ``1 .. extra`` route to their predecessor)."""
    graph = generators.cycle_graph(n)
    routing = Routing(graph, bidirectional=False)
    for node in range(n):
        routing.set_route(node, (node + 1) % n, [node, (node + 1) % n])
    for node in range(1, extra + 1):
        routing.set_route(node, node - 1, [node, node - 1])
    return graph, routing


class TestDensityThreshold:
    def test_default_threshold(self):
        """The rule is ``8 * arcs <= n^2``, with the boundary batched."""
        assert BFS_DENSITY_FACTOR == 8
        # n = 8: 8 arcs sit exactly on the boundary, 9 arcs cross it.
        graph, routing = _ring_routing(8)
        assert RouteIndex(graph, routing).preferred_strategy() == STRATEGY_BATCHED
        graph, routing = _ring_routing(8, extra=1)
        assert (
            RouteIndex(graph, routing).preferred_strategy() == STRATEGY_PER_SOURCE
        )


class TestPreferredStrategy:
    def test_extremes_select_both_strategies(self, workload):
        # A sparse ring routing propagates batched; the kernel routing's
        # complete route graph runs per-source BFS.
        ring_graph, ring_routing = _ring_routing(24)
        assert (
            RouteIndex(ring_graph, ring_routing).preferred_strategy()
            == STRATEGY_BATCHED
        )
        graph, routing = workload
        assert RouteIndex(graph, routing).preferred_strategy() == STRATEGY_PER_SOURCE

    def test_strategy_accepts_fault_sets(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        strategy = index.preferred_strategy(faults=[graph.nodes()[0]])
        assert strategy in (STRATEGY_BATCHED, STRATEGY_PER_SOURCE)

    def test_campaign_rows_record_strategy(self):
        graph, routing = _ring_routing(24)
        from repro.faults import CampaignEngine

        engine = CampaignEngine(graph, routing)
        row = engine.run_campaign(1, samples=5, seed=0)
        assert row.bfs_strategy == STRATEGY_BATCHED
        assert row.as_row()["bfs"] == STRATEGY_BATCHED
