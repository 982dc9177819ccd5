"""Vertex separators (separating sets).

The kernel construction of Dolev et al. — the starting point of the paper —
routes every node to a minimal *separating set* ``M``: a set of ``t + 1`` or
more nodes whose removal disconnects the graph.  This module finds minimum
separators (globally and between specific pairs) and verifies candidate
separating sets.

Minimum separators come out of the same node-split max-flow computation used
for connectivity (the graph's compiled network, :func:`repro.graphs.flow
.split_network`): after a max-flow run between a non-adjacent pair, the arcs
crossing the minimum cut that are node arcs (``x_in -> x_out``) identify the
separator nodes.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.flow import split_network
from repro.graphs.graph import Graph
from repro.graphs.traversal import connected_components, is_connected

Node = Hashable


def even_pairs(graph: Graph) -> List[Tuple[Node, Node]]:
    """Return the non-adjacent pairs whose minimum local connectivity is ``kappa(G)``.

    Even's scheme: pick a minimum-degree pivot ``v``; every minimum separator
    either misses ``v`` (and separates it from some non-neighbour ``w``) or
    contains it (and separates two non-adjacent neighbours of ``v``).  Pairs
    come pivot-first, then neighbour pairs by ``(degree, repr)``.
    """
    pivot = min(graph.nodes(), key=graph.degree)
    pairs = [
        (pivot, node)
        for node in graph.nodes()
        if node != pivot and not graph.has_edge(pivot, node)
    ]
    neighbors = sorted(
        graph.neighbors(pivot), key=lambda node: (graph.degree(node), repr(node))
    )
    pairs.extend(
        (x, y) for x, y in itertools.combinations(neighbors, 2) if not graph.has_edge(x, y)
    )
    return pairs


def is_separating_set(graph: Graph, candidate: Set[Node]) -> bool:
    """Return ``True`` if removing ``candidate`` disconnects ``graph``.

    Matching the paper's definition, the removal must leave **at least two
    non-empty** connected components; removing everything (or leaving a single
    component, possibly empty) does not count.
    """
    for node in candidate:
        if not graph.has_node(node):
            raise NodeNotFoundError(node)
    remaining = graph.without_nodes(candidate)
    if remaining.number_of_nodes() == 0:
        return False
    return len(connected_components(remaining)) >= 2


def separates(graph: Graph, candidate: Set[Node], x: Node, y: Node) -> bool:
    """Return ``True`` if ``candidate`` separates ``x`` from ``y``.

    ``x`` and ``y`` must not belong to the candidate set themselves.
    """
    if x in candidate or y in candidate:
        raise ValueError("endpoints may not belong to the separating set")
    remaining = graph.without_nodes(candidate)
    if not remaining.has_node(x) or not remaining.has_node(y):
        raise NodeNotFoundError(x if not remaining.has_node(x) else y)
    from repro.graphs.traversal import bfs_distances

    return y not in bfs_distances(remaining, x)


def minimum_pair_separator(graph: Graph, source: Node, target: Node) -> Set[Node]:
    """Return a minimum vertex set separating non-adjacent ``source`` and ``target``.

    Raises
    ------
    ValueError
        If the two nodes are adjacent (no vertex set can separate them).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        raise ValueError("source and target must be distinct")
    if graph.has_edge(source, target):
        raise ValueError("adjacent nodes cannot be separated by removing vertices")

    return split_network(graph).max_flow(source, target).separator()


def minimum_separator(graph: Graph) -> Set[Node]:
    """Return a minimum separating set of a connected, non-complete graph.

    The returned set has exactly ``kappa(G)`` nodes.  For the paper's model a
    graph of connectivity ``t + 1`` therefore yields a minimal separating set
    ``M`` of size ``t + 1``, as required by the kernel construction, and
    ``len(M) - 1`` is the fault parameter ``t`` itself.

    One sweep over Even's pairs (:func:`even_pairs`) keeps the first strictly
    smallest pair separator.  Each flow stops once it reaches the best size
    so far: a flow that stops there cannot improve on it, and one that
    finishes below it ran exactly as an uncut flow would, so the result is
    the unpruned sweep's.  The sweep runs once per graph: its result is
    cached on the graph (:meth:`~repro.graphs.graph.Graph.derived`) until the
    graph changes, and :func:`~repro.graphs.connectivity.node_connectivity`
    reads ``kappa(G)`` from it.  Each call returns a fresh set.

    Raises
    ------
    ValueError
        If the graph is complete (no separating set exists), disconnected or
        has fewer than three nodes.
    """
    return set(graph.derived("minimum-separator", _sweep_even_pairs))


def _sweep_even_pairs(graph: Graph) -> FrozenSet[Node]:
    n = graph.number_of_nodes()
    if n < 3:
        raise ValueError("graphs with fewer than 3 nodes have no separating set")
    if not is_connected(graph):
        raise ValueError("graph is disconnected; separating sets are not meaningful")
    if all(graph.degree(node) == n - 1 for node in graph.nodes()):
        raise ValueError("complete graphs have no separating set")

    best: Optional[Set[Node]] = None
    network = split_network(graph)
    for x, y in even_pairs(graph):
        flow = network.max_flow(x, y, cutoff=None if best is None else len(best))
        if best is None or flow.value < len(best):
            best = flow.separator()
            if len(best) == 1:
                break
    if best is None:
        # Every non-adjacent pair search failed, which for a non-complete
        # connected graph cannot happen; guard for safety.
        raise ValueError("failed to locate a separating set")
    return frozenset(best)


def minimal_separating_set(graph: Graph, size: Optional[int] = None) -> Set[Node]:
    """Return a separating set of exactly ``size`` nodes (default ``kappa(G)``).

    The kernel construction asks for a *minimal* separating set of size
    ``t + 1``; if a larger ``size`` is requested the minimum separator is
    padded with additional nodes chosen so that the set still separates the
    graph (nodes outside the two components being merged cannot "unseparate"
    it, so any extra non-component-spanning nodes work — we simply add nodes
    not in the separator, preferring high-degree ones, and re-verify).
    """
    base = minimum_separator(graph)
    if size is None or size == len(base):
        return base
    if size < len(base):
        raise ValueError(
            f"no separating set of size {size} exists: minimum separator has "
            f"{len(base)} nodes"
        )
    remaining_components = connected_components(graph.without_nodes(base))
    # Keep at least one node out of two distinct components so the enlarged
    # set still separates the graph (repr-minimal choice for determinism).
    protected = {min(component, key=repr) for component in remaining_components[:2]}
    extras = [
        node
        for node in sorted(
            graph.nodes(), key=lambda node: (-graph.degree(node), repr(node))
        )
        if node not in base and node not in protected
    ]
    enlarged = set(base)
    for node in extras:
        if len(enlarged) >= size:
            break
        enlarged.add(node)
    if len(enlarged) < size or not is_separating_set(graph, enlarged):
        raise ValueError(f"could not build a separating set of size {size}")
    return enlarged
