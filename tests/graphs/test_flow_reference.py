"""The array Dinic finds exactly the flows of a dict-residual reference.

Every separator and disjoint-path choice downstream (and so every routing
fingerprint) depends on which augmenting paths Dinic finds, not only on the
flow value.  The reference below is the straightforward formulation: a
residual dict keyed by ``(u, v)`` label pairs, insertion-ordered neighbour
dicts, a per-node arc iterator that moves past the arc taken, dead ends
dropped from the level graph, and a node-split network rebuilt (from a graph
copy without the direct edge, for adjacent endpoints) for every flow.  The
library must return the same paths, separators and values on random graphs
built in random insertion orders.
"""

import collections
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    is_connected,
    local_node_connectivity,
    minimum_pair_separator,
    minimum_separator,
    vertex_disjoint_paths,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ReferenceNetwork:
    def __init__(self):
        self.capacity = {}
        self.adjacency = {}

    def add_arc(self, u, v, capacity):
        self.adjacency.setdefault(u, {})[v] = None
        self.adjacency.setdefault(v, {})[u] = None
        self.capacity[(u, v)] = self.capacity.get((u, v), 0) + capacity
        self.capacity.setdefault((v, u), 0)

    def max_flow(self, source, sink, cutoff=None):
        flow = 0
        while True:
            levels = {source: 0}
            queue = collections.deque([source])
            while queue:
                node = queue.popleft()
                for nxt in self.adjacency[node]:
                    if nxt not in levels and self.capacity[(node, nxt)] > 0:
                        levels[nxt] = levels[node] + 1
                        queue.append(nxt)
            if sink not in levels:
                return flow
            iterators = {node: iter(list(arcs)) for node, arcs in self.adjacency.items()}
            while True:
                path = [source]
                while path and path[-1] != sink:
                    node = path[-1]
                    for nxt in iterators[node]:
                        if self.capacity[(node, nxt)] > 0 and levels.get(nxt, -1) == levels[node] + 1:
                            path.append(nxt)
                            break
                    else:
                        levels[node] = -1
                        path.pop()
                if not path:
                    break
                pushed = min(self.capacity[arc] for arc in zip(path, path[1:]))
                for u, v in zip(path, path[1:]):
                    self.capacity[(u, v)] -= pushed
                    self.capacity[(v, u)] += pushed
                flow += pushed
                if cutoff is not None and flow >= cutoff:
                    return flow

    def reachable(self, source):
        seen = {source}
        queue = collections.deque([source])
        while queue:
            node = queue.popleft()
            for nxt in self.adjacency[node]:
                if nxt not in seen and self.capacity[(node, nxt)] > 0:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen


def reference_split(graph, source, target, edge_capacity):
    network = ReferenceNetwork()
    large = graph.number_of_nodes() + 1
    for node in graph.nodes():
        network.add_arc((node, "in"), (node, "out"), large if node in (source, target) else 1)
    for u, v in graph.edges():
        network.add_arc((u, "out"), (v, "in"), edge_capacity)
        network.add_arc((v, "out"), (u, "in"), edge_capacity)
    return network


def without_edge(graph, u, v):
    if not graph.has_edge(u, v):
        return graph
    reduced = graph.copy()
    reduced.remove_edge(u, v)
    return reduced


def reference_separator(graph, source, target):
    network = reference_split(graph, source, target, graph.number_of_nodes() + 1)
    network.max_flow((source, "out"), (target, "in"))
    reachable = network.reachable((source, "out"))
    return {
        node
        for node in graph.nodes()
        if (node, "in") in reachable and (node, "out") not in reachable
    }


def reference_paths(graph, source, target, k=None):
    paths = []
    if graph.has_edge(source, target):
        paths.append([source, target])
        if k is not None and k <= 1:
            return paths[:k]
    working = without_edge(graph, source, target)
    remaining = None if k is None else k - len(paths)
    network = reference_split(working, source, target, 1)
    network.max_flow((source, "out"), (target, "in"), cutoff=remaining)
    large = working.number_of_nodes() + 1
    used = {}
    for node in working.nodes():
        original = large if node in (source, target) else 1
        if original - network.capacity[((node, "in"), (node, "out"))] > 0:
            used.setdefault((node, "in"), []).append((node, "out"))
    for u, v in working.edges():
        for a, b in (((u, "out"), (v, "in")), ((v, "out"), (u, "in"))):
            if 1 - network.capacity[(a, b)] > 0:
                used.setdefault(a, []).append(b)
    found = []
    while used.get((source, "out")):
        walk = [(source, "out")]
        while walk[-1] != (target, "in"):
            walk.append(used[walk[-1]].pop())
        nodes = [source]
        for node, tag in walk[1:]:
            if tag == "in" and node != nodes[-1]:
                nodes.append(node)
        found.append(nodes)
    if remaining is not None:
        found = found[:remaining]
    return paths + found


def reference_connectivity(graph, source, target, cutoff=None):
    if graph.has_edge(source, target):
        inner = None if cutoff is None else max(cutoff - 1, 0)
        return 1 + reference_connectivity(without_edge(graph, source, target), source, target, inner)
    network = reference_split(graph, source, target, graph.number_of_nodes() + 1)
    return network.max_flow((source, "out"), (target, "in"), cutoff=cutoff)


def reference_minimum_separator(graph):
    pivot = min(graph.nodes(), key=graph.degree)
    pairs = [(pivot, w) for w in graph.nodes() if w != pivot and not graph.has_edge(pivot, w)]
    neighbors = sorted(graph.neighbors(pivot), key=lambda node: (graph.degree(node), repr(node)))
    pairs += [(x, y) for x, y in itertools.combinations(neighbors, 2) if not graph.has_edge(x, y)]
    best = None
    for x, y in pairs:
        separator = reference_separator(graph, x, y)
        if best is None or len(separator) < len(best):
            best = separator
            if len(best) == 1:
                break
    return best


@st.composite
def shuffled_graph(draw, min_nodes=3, max_nodes=12):
    """A random graph whose nodes and edges arrive in a hypothesis-chosen order."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1, max_size=len(pairs)))
    flipped = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    nodes = draw(st.permutations(range(n)))
    return Graph(
        nodes=nodes,
        edges=[(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flipped)],
    )


class TestMatchesDictReference:
    @SETTINGS
    @given(shuffled_graph(), st.data())
    def test_pair_flows_match(self, graph, data):
        nodes = graph.nodes()
        source, target = data.draw(st.permutations(nodes))[:2]
        k = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
        assert vertex_disjoint_paths(graph, source, target, k=k) == reference_paths(
            graph, source, target, k=k
        )
        cutoff = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
        assert local_node_connectivity(graph, source, target, cutoff=cutoff) == (
            reference_connectivity(graph, source, target, cutoff=cutoff)
        )
        if not graph.has_edge(source, target):
            assert minimum_pair_separator(graph, source, target) == reference_separator(
                graph, source, target
            )

    @SETTINGS
    @given(shuffled_graph())
    def test_minimum_separator_matches(self, graph):
        n = graph.number_of_nodes()
        if not is_connected(graph) or graph.number_of_edges() == n * (n - 1) // 2:
            return
        assert minimum_separator(graph) == reference_minimum_separator(graph)
