"""Unit tests for minimum vertex separators and separating-set predicates."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graphs import (
    Graph,
    is_separating_set,
    minimal_separating_set,
    minimum_pair_separator,
    minimum_separator,
    node_connectivity,
    separates,
)
from repro.graphs import generators


class TestIsSeparatingSet:
    def test_path_middle_node(self):
        graph = generators.path_graph(5)
        assert is_separating_set(graph, {2})

    def test_path_endpoint_is_not(self):
        graph = generators.path_graph(5)
        assert not is_separating_set(graph, {0})

    def test_cycle_needs_two(self):
        graph = generators.cycle_graph(6)
        assert not is_separating_set(graph, {0})
        assert is_separating_set(graph, {0, 3})

    def test_adjacent_pair_does_not_separate_cycle(self):
        graph = generators.cycle_graph(6)
        assert not is_separating_set(graph, {0, 1})

    def test_removing_everything_is_not_separating(self):
        graph = generators.path_graph(3)
        assert not is_separating_set(graph, {0, 1, 2})

    def test_unknown_node_rejected(self):
        graph = generators.path_graph(3)
        with pytest.raises(NodeNotFoundError):
            is_separating_set(graph, {99})

    def test_complete_graph_has_none(self):
        graph = generators.complete_graph(4)
        assert not is_separating_set(graph, {0})
        assert not is_separating_set(graph, {0, 1})
        assert not is_separating_set(graph, {0, 1, 2})


class TestSeparates:
    def test_pair_separation(self):
        graph = generators.path_graph(5)
        assert separates(graph, {2}, 0, 4)
        assert not separates(graph, {3}, 0, 2)

    def test_endpoint_in_candidate_rejected(self):
        graph = generators.path_graph(5)
        with pytest.raises(ValueError):
            separates(graph, {0}, 0, 4)

    def test_missing_endpoint_rejected(self):
        graph = generators.path_graph(5)
        with pytest.raises(NodeNotFoundError):
            separates(graph, {2}, 0, 99)


class TestMinimumPairSeparator:
    def test_cycle_pair(self):
        graph = generators.cycle_graph(8)
        separator = minimum_pair_separator(graph, 0, 4)
        assert len(separator) == 2
        assert separates(graph, separator, 0, 4)

    def test_hypercube_pair(self):
        graph = generators.hypercube_graph(3)
        separator = minimum_pair_separator(graph, 0, 7)
        assert len(separator) == 3
        assert separates(graph, separator, 0, 7)

    def test_adjacent_rejected(self):
        graph = generators.cycle_graph(5)
        with pytest.raises(ValueError):
            minimum_pair_separator(graph, 0, 1)

    def test_same_node_rejected(self):
        graph = generators.cycle_graph(5)
        with pytest.raises(ValueError):
            minimum_pair_separator(graph, 0, 0)

    def test_missing_node_rejected(self):
        graph = generators.cycle_graph(5)
        with pytest.raises(NodeNotFoundError):
            minimum_pair_separator(graph, 0, 77)


class TestMinimumSeparator:
    def test_size_equals_connectivity(self):
        for graph in (
            generators.cycle_graph(9),
            generators.hypercube_graph(3),
            generators.petersen_graph(),
            generators.grid_graph(3, 4),
            generators.circulant_graph(10, [1, 2]),
        ):
            separator = minimum_separator(graph)
            # Without a cutoff node_connectivity reads the separator's size;
            # a cutoff of n runs the value sweep over Even's pairs instead.
            n = graph.number_of_nodes()
            assert len(separator) == node_connectivity(graph, cutoff=n)
            assert is_separating_set(graph, separator)

    def test_path_cut_vertex(self):
        graph = generators.path_graph(7)
        separator = minimum_separator(graph)
        assert len(separator) == 1
        assert is_separating_set(graph, separator)

    def test_complete_graph_rejected(self):
        with pytest.raises(ValueError):
            minimum_separator(generators.complete_graph(5))

    def test_tiny_graph_rejected(self):
        with pytest.raises(ValueError):
            minimum_separator(Graph(edges=[(0, 1)]))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            minimum_separator(Graph(edges=[(0, 1)], nodes=[2]))

    def test_cached_until_the_graph_changes_and_handed_out_fresh(self):
        graph = generators.cycle_graph(8)
        separator = minimum_separator(graph)
        assert separator == {1, 7}
        separator.add(4)
        assert minimum_separator(graph) == {1, 7}
        assert minimum_separator(graph) is not minimum_separator(graph)
        graph.add_edge(0, 4)
        assert minimum_separator(graph) == {0, 2}


class TestMinimalSeparatingSet:
    def test_default_is_minimum(self):
        graph = generators.cycle_graph(8)
        assert len(minimal_separating_set(graph)) == 2

    def test_requested_larger_size(self):
        graph = generators.cycle_graph(10)
        enlarged = minimal_separating_set(graph, size=4)
        assert len(enlarged) == 4
        assert is_separating_set(graph, enlarged)

    def test_requested_too_small(self):
        graph = generators.cycle_graph(8)
        with pytest.raises(ValueError):
            minimal_separating_set(graph, size=1)
