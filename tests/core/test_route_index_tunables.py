"""RouteIndex BFS strategy: the fixed density rule and its introspection."""

from __future__ import annotations

import random

import pytest

from repro.core import RouteIndex, kernel_routing
from repro.core.route_index import (
    BFS_DENSITY_FACTOR,
    STRATEGY_BATCHED,
    STRATEGY_PER_SOURCE,
    _rows_diameter_witness,
)
from repro.core.routing import Routing
from repro.graphs import generators
from repro.scenarios import parse_scenario


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


class _CountingRows(list):
    """Adjacency rows that count how many times the BFS reads one."""

    reads = 0

    def __getitem__(self, position):
        self.reads += 1
        return super().__getitem__(position)


class TestDisconnectionGuard:
    def test_disconnecting_set_costs_one_bfs_on_the_batched_strategy(self):
        """A disconnection by the lowest alive node ends the evaluation.

        The all-sources propagation reads every alive row before its first
        level; the guard's single BFS reads fewer rows than there are alive
        nodes before it finds the unreachable node.
        """
        graph, result = parse_scenario("cycle:n=120/kernel").build()
        index = RouteIndex(graph, result.routing)
        faults = random.Random(1).sample(index.node_pool, 4)
        assert index.preferred_strategy(faults) == STRATEGY_BATCHED
        fault_mask = index._fault_mask(faults)
        alive = index._full_mask & ~fault_mask
        rows = _CountingRows(index._surviving_rows(fault_mask))
        value, witness, capped = _rows_diameter_witness(rows, alive)
        assert value == float("inf")
        assert witness is not None and capped is None
        assert witness[0] == alive & -alive
        assert rows.reads < alive.bit_count()
