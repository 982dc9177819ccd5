"""Construction of internally vertex-disjoint paths.

Lemma 2 of the paper builds a *tree routing* from a node ``x`` to a separating
set ``M`` by taking ``t + 1`` node-disjoint paths from ``x`` to some node
``y`` separated from ``x`` by ``M`` and truncating each at its first
``M``-node.  This module supplies the underlying primitive: a maximum set of
internally vertex-disjoint ``x``–``y`` paths, extracted from a max-flow on the
graph's compiled node-split network (:func:`repro.graphs.flow.split_network`).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Set

from repro.exceptions import NodeNotFoundError
from repro.graphs.flow import split_network
from repro.graphs.graph import Graph

Node = Hashable


def vertex_disjoint_paths(
    graph: Graph,
    source: Node,
    target: Node,
    k: Optional[int] = None,
) -> List[List[Node]]:
    """Return a maximum set of internally vertex-disjoint ``source``–``target`` paths.

    Parameters
    ----------
    graph:
        The underlying undirected graph.
    source, target:
        Distinct nodes of ``graph``.
    k:
        Optional cap on the number of paths returned (and on the amount of
        flow computed).  When ``k`` is ``None`` the full maximum is returned.

    Returns
    -------
    list of paths
        Each path is a node list from ``source`` to ``target``.  If the two
        nodes are adjacent, one of the returned paths is the direct edge.
        Paths share no node other than the two endpoints.

    Notes
    -----
    By Menger's theorem the number of returned paths equals the local vertex
    connectivity ``kappa(source, target)`` (or ``k`` when capped).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        raise ValueError("source and target must be distinct")

    paths: List[List[Node]] = []
    if graph.has_edge(source, target):
        # The direct edge is one path; the flow masks it for the rest.
        paths.append([source, target])
        if k is not None and k <= 1:
            return paths[:k]

    remaining = None if k is None else k - len(paths)
    # Unit edge capacities: an edge carries at most one unit, so the integral
    # flow decomposes directly into internally disjoint paths.
    flow = split_network(graph, unit_edges=True).max_flow(source, target, cutoff=remaining)
    flow_paths = flow.paths()
    if remaining is not None:
        flow_paths = flow_paths[:remaining]
    paths.extend(flow_paths)
    return paths


def are_internally_disjoint(paths: Sequence[Sequence[Node]]) -> bool:
    """Return ``True`` if the given paths share no internal node.

    Endpoints (the first and last node of each path) are allowed to coincide;
    every other node must appear in at most one path.
    """
    seen: Set[Node] = set()
    for path in paths:
        for node in path[1:-1]:
            if node in seen:
                return False
            seen.add(node)
    return True


def truncate_paths_at_set(
    paths: Sequence[Sequence[Node]], targets: Set[Node]
) -> List[List[Node]]:
    """Truncate each path at its first node belonging to ``targets``.

    This is the path surgery of Lemma 2: given node-disjoint paths from ``x``
    towards some node beyond the separating set ``M``, keep only the prefix up
    to (and including) the first ``M``-node encountered.  Paths that never
    meet ``targets`` are dropped.
    """
    truncated: List[List[Node]] = []
    for path in paths:
        for index, node in enumerate(path):
            if index > 0 and node in targets:
                truncated.append(list(path[: index + 1]))
                break
    return truncated
