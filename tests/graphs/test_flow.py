"""Unit tests for the Dinic max-flow engine and the cached node-split network."""

import copy
import pickle

import pytest

from repro.graphs import (
    Graph,
    generators,
    local_node_connectivity,
    node_connectivity,
    vertex_disjoint_paths,
)
from repro.graphs.flow import FlowNetwork, split_network, unit_max_flow


class TestFlowNetworkBasics:
    def test_add_arc_and_capacity(self):
        network = FlowNetwork()
        network.add_arc("s", "t", 3)
        assert network.capacity("s", "t") == 3
        assert network.capacity("t", "s") == 0

    def test_capacity_accumulates(self):
        network = FlowNetwork()
        network.add_arc(0, 1, 2)
        network.add_arc(0, 1, 3)
        assert network.capacity(0, 1) == 5

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork().add_arc(0, 1, -1)

    def test_nodes(self):
        network = FlowNetwork()
        network.add_arc(0, 1)
        network.add_node(5)
        assert set(network.nodes()) == {0, 1, 5}

    def test_max_flow_same_endpoints(self):
        network = FlowNetwork()
        network.add_arc(0, 1)
        with pytest.raises(ValueError):
            network.max_flow(0, 0)

    def test_max_flow_unknown_nodes(self):
        network = FlowNetwork()
        assert network.max_flow("a", "b") == 0


class TestMaxFlowValues:
    def test_single_arc(self):
        network = FlowNetwork()
        network.add_arc("s", "t", 4)
        assert network.max_flow("s", "t") == 4

    def test_series_bottleneck(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 5)
        network.add_arc("a", "t", 2)
        assert network.max_flow("s", "t") == 2

    def test_parallel_paths(self):
        network = FlowNetwork()
        for middle in ("a", "b", "c"):
            network.add_arc("s", middle, 1)
            network.add_arc(middle, "t", 1)
        assert network.max_flow("s", "t") == 3

    def test_classic_diamond(self):
        # The textbook network where a naive augmenting path needs residual arcs.
        network = FlowNetwork()
        network.add_arc("s", "a", 1)
        network.add_arc("s", "b", 1)
        network.add_arc("a", "b", 1)
        network.add_arc("a", "t", 1)
        network.add_arc("b", "t", 1)
        assert network.max_flow("s", "t") == 2

    def test_disconnected_sink(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 1)
        network.add_node("t")
        assert network.max_flow("s", "t") == 0

    def test_cutoff_stops_early(self):
        network = FlowNetwork()
        for middle in range(5):
            network.add_arc("s", middle, 1)
            network.add_arc(middle, "t", 1)
        assert network.max_flow("s", "t", cutoff=2) == 2

    def test_larger_grid_flow(self):
        # 3x3 grid of unit arcs from left column to right column.
        network = FlowNetwork()
        for row in range(3):
            network.add_arc("s", ("l", row), 1)
            network.add_arc(("r", row), "t", 1)
            network.add_arc(("l", row), ("r", row), 1)
        assert network.max_flow("s", "t") == 3

    def test_integer_capacities(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 10)
        network.add_arc("a", "t", 7)
        network.add_arc("s", "t", 4)
        assert network.max_flow("s", "t") == 11


class TestMinCut:
    def test_min_cut_reachable_after_flow(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 1)
        network.add_arc("a", "t", 1)
        network.max_flow("s", "t")
        reachable = network.min_cut_reachable("s")
        assert "s" in reachable
        assert "t" not in reachable

    def test_min_cut_separates_bottleneck(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 5)
        network.add_arc("a", "b", 1)
        network.add_arc("b", "t", 5)
        network.max_flow("s", "t")
        reachable = network.min_cut_reachable("s")
        assert "a" in reachable
        assert "b" not in reachable


class TestUnitMaxFlow:
    def test_unit_max_flow_path(self):
        arcs = [(0, 1), (1, 2)]
        assert unit_max_flow(arcs, 0, 2) == 1

    def test_unit_max_flow_disjoint_paths(self):
        arcs = [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]
        assert unit_max_flow(arcs, 0, 4) == 3

    def test_unit_max_flow_with_cutoff(self):
        arcs = [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]
        assert unit_max_flow(arcs, 0, 4, cutoff=1) == 1

    def test_unit_max_flow_no_path(self):
        assert unit_max_flow([(0, 1)], 0, 5) == 0


class TestSplitNetwork:
    """The node-split network compiled once per graph and cached on it."""

    def test_cached_until_the_graph_changes(self):
        graph = generators.cycle_graph(6)
        network = split_network(graph)
        assert split_network(graph) is network
        assert split_network(graph, unit_edges=True) is not network
        graph.add_node(0)  # already present: not a change
        assert split_network(graph) is network

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.remove_edge(0, 1),
            lambda g: g.add_edge(0, 3),
            lambda g: g.add_node("extra"),
            lambda g: g.remove_node(5),
            lambda g: g.add_edges_from([(1, 4)]),
            lambda g: g.remove_nodes_from([2]),
        ],
    )
    def test_mutation_never_reuses_a_stale_network(self, mutate):
        graph = generators.cycle_graph(6)
        stale = split_network(graph)
        stale_paths = split_network(graph, unit_edges=True)
        node_connectivity(graph)
        mutate(graph)
        assert split_network(graph) is not stale
        assert split_network(graph, unit_edges=True) is not stale_paths
        assert split_network(graph).nodes == graph.nodes()
        # Values follow the mutated graph, exactly as a fresh copy computes them.
        fresh = graph.copy()
        assert node_connectivity(graph) == node_connectivity(fresh)
        nodes = graph.nodes()
        assert local_node_connectivity(graph, nodes[0], nodes[2]) == (
            local_node_connectivity(fresh, nodes[0], nodes[2])
        )

    def test_cache_stays_out_of_equality_copies_and_pickles(self):
        graph = generators.hypercube_graph(3)
        split_network(graph)
        split_network(graph, unit_edges=True)
        assert graph._derived
        plain = generators.hypercube_graph(3)
        assert graph == plain and plain == graph
        for clone in (graph.copy(), pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
            assert clone == graph
            assert clone._derived == {}
            assert split_network(clone) is not split_network(graph)
        assert pickle.dumps(graph) == pickle.dumps(plain)

    def test_flows_leave_the_compiled_capacities_untouched(self):
        graph = generators.hypercube_graph(3)
        network = split_network(graph, unit_edges=True)
        first = network.max_flow(0, 7).paths()
        assert network.max_flow(0, 7).paths() == first
        assert len(first) == 3

    def test_adjacent_endpoints_mask_their_edge(self):
        graph = generators.cycle_graph(6)
        reduced = graph.copy()
        reduced.remove_edge(0, 1)
        for unit_edges in (False, True):
            masked = split_network(graph, unit_edges).max_flow(0, 1)
            plain = split_network(reduced, unit_edges).max_flow(0, 1)
            assert masked.value == plain.value == 1
            assert masked.paths() == plain.paths() == [[0, 5, 4, 3, 2, 1]]

    def test_cancelled_flow_decomposes_in_source_arc_order(self):
        # Dinic augments 0-5-6, then 0-2-3-6, then 0-1-3-2-4-6, whose step
        # 3 -> 2 runs along the reverse arc of 2 -> 3 and cancels that unit.
        # The paths come out by the source's flow arcs, last first.
        graph = Graph(
            nodes=range(7),
            edges=[
                (0, 5), (1, 3), (3, 6), (5, 6), (3, 4), (0, 2),
                (1, 2), (4, 6), (2, 3), (0, 1), (2, 4),
            ],
        )
        assert vertex_disjoint_paths(graph, 0, 6) == [[0, 1, 3, 6], [0, 2, 4, 6], [0, 5, 6]]
