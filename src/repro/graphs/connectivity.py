"""Vertex and edge connectivity via Menger's theorem and max-flow.

The constructions in the paper are parameterised by the node-connectivity
``t + 1`` of the underlying graph, so an exact connectivity computation is a
prerequisite for everything else.  We use the classical reduction:

* **local vertex connectivity** ``kappa(u, v)`` for non-adjacent ``u, v`` is
  the max flow from ``u`` to ``v`` in the *node-split* digraph, where every
  node ``x`` becomes ``x_in -> x_out`` with capacity 1 and every undirected
  edge ``{x, y}`` becomes the two arcs ``x_out -> y_in`` and ``y_out -> x_in``
  (see :mod:`repro.graphs.flow`, which compiles that network once per graph);
* **global vertex connectivity** is the minimum of ``kappa(v, w)`` over
  Even's pairs (:func:`~repro.graphs.separators.even_pairs`): a
  minimum-degree node against every non-neighbour, and every non-adjacent
  pair among its neighbours.  That sweep also finds a minimum separator, so
  :func:`node_connectivity` reads ``kappa(G)`` as the size of the one
  :func:`~repro.graphs.separators.minimum_separator` caches on the graph.

Edge connectivity uses the same machinery without node splitting.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.exceptions import NodeNotFoundError
from repro.graphs.flow import FlowNetwork, split_network
from repro.graphs.graph import Graph
from repro.graphs.separators import even_pairs, minimum_separator
from repro.graphs.traversal import is_connected

Node = Hashable


def local_node_connectivity(
    graph: Graph, source: Node, target: Node, cutoff: Optional[int] = None
) -> int:
    """Return ``kappa(source, target)``: max number of internally disjoint paths.

    For adjacent nodes the direct edge counts as one path; the remaining paths
    are computed on the graph with that edge removed, matching the standard
    definition (``kappa(u, v)`` is infinite only in complete graphs, which we
    avoid by returning ``n - 1`` as the natural ceiling).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        raise ValueError("local connectivity is undefined for identical endpoints")
    network = split_network(graph)
    if graph.has_edge(source, target):
        # The direct edge is one path; the flow masks it for the rest.
        inner_cutoff = None if cutoff is None else max(cutoff - 1, 0)
        return 1 + network.max_flow(source, target, cutoff=inner_cutoff).value
    return network.max_flow(source, target, cutoff=cutoff).value


def node_connectivity(graph: Graph, cutoff: Optional[int] = None) -> int:
    """Return the global vertex connectivity ``kappa(G)``.

    Conventions: the empty and single-node graphs have connectivity 0; a
    disconnected graph has connectivity 0; the complete graph ``K_n`` has
    connectivity ``n - 1``.

    Parameters
    ----------
    cutoff:
        Optional early-exit: if every examined pair has local connectivity at
        least ``cutoff``, the returned value may be capped at ``cutoff``.  Use
        this when only ``kappa(G) >= k`` matters.  Without it the value is the
        size of the graph's cached minimum separator.
    """
    n = graph.number_of_nodes()
    if n <= 1:
        return 0
    if not is_connected(graph):
        return 0
    if all(graph.degree(node) == n - 1 for node in graph.nodes()):
        return n - 1
    if cutoff is None:
        return len(minimum_separator(graph))

    # kappa(G) is the minimum local connectivity over Even's pairs; we
    # additionally never exceed min degree.
    best = graph.min_degree()
    if cutoff > 0:
        best = min(best, cutoff)
    network = split_network(graph)
    for x, y in even_pairs(graph):
        best = min(best, network.max_flow(x, y, cutoff=best).value)
        if best == 0:
            return 0
    return best


def is_k_connected(graph: Graph, k: int) -> bool:
    """Return ``True`` if ``kappa(G) >= k``.

    Slightly cheaper than computing the exact connectivity because local
    computations stop as soon as ``k`` disjoint paths are found.
    """
    if k <= 0:
        return True
    n = graph.number_of_nodes()
    if n <= k:
        # kappa(G) <= n - 1 always.
        return n >= 2 and node_connectivity(graph) >= k
    return node_connectivity(graph, cutoff=k) >= k


def local_edge_connectivity(
    graph: Graph, source: Node, target: Node, cutoff: Optional[int] = None
) -> int:
    """Return ``lambda(source, target)``: max number of edge-disjoint paths."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        raise ValueError("local edge connectivity is undefined for identical endpoints")
    network = FlowNetwork()
    for u, v in graph.edges():
        network.add_arc(u, v, 1)
        network.add_arc(v, u, 1)
    network.add_node(source)
    network.add_node(target)
    return network.max_flow(source, target, cutoff=cutoff)


def edge_connectivity(graph: Graph) -> int:
    """Return the global edge connectivity ``lambda(G)``.

    Uses the standard "fixed node against every other node" reduction, which is
    exact for edge connectivity.
    """
    n = graph.number_of_nodes()
    if n <= 1:
        return 0
    if not is_connected(graph):
        return 0
    nodes = graph.nodes()
    pivot = nodes[0]
    best = graph.min_degree()
    for other in nodes[1:]:
        best = min(best, local_edge_connectivity(graph, pivot, other, cutoff=best))
        if best == 0:
            return 0
    return best


def require_connectivity(graph: Graph) -> None:
    """Refuse graphs of connectivity 0 (fewer than two nodes, or disconnected).

    Raises
    ------
    ValueError
        If the graph is disconnected (connectivity 0), for which no fault
        tolerance guarantee is possible.
    """
    if graph.number_of_nodes() <= 1 or not is_connected(graph):
        raise ValueError("graph is disconnected; the model requires connectivity >= 1")


def connectivity_parameter(graph: Graph) -> int:
    """Return the paper's fault-tolerance parameter ``t`` where ``kappa(G) = t + 1``.

    Raises
    ------
    ValueError
        If the graph is disconnected (connectivity 0), for which no fault
        tolerance guarantee is possible.
    """
    require_connectivity(graph)
    return node_connectivity(graph) - 1
