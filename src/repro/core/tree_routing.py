"""Tree routings (Lemma 2): node-disjoint routes from a node into a separating set.

A *(unidirectional) tree routing* from ``x`` to a separating set ``M`` is a
collection of routes connecting ``x`` to precisely ``t + 1`` nodes of ``M`` by
internally node-disjoint paths, with the additional requirement that whenever
``x`` is adjacent to one of those ``t + 1`` nodes the corresponding path is
the direct edge.  Lemma 1 then guarantees that as long as ``|F| <= t`` and
``x`` survives, at least one of the routes survives — the fundamental step of
every construction in the paper.

Lemma 2 proves existence constructively: pick a node ``y`` separated from
``x`` by ``M``, take ``t + 1`` internally disjoint ``x``–``y`` paths (Menger),
and truncate each at its first ``M``-node.  :func:`tree_routing` implements
exactly that, with the important practical specialisation that when ``M`` is
the neighbour set ``Gamma(m)`` of a concentrator node ``m`` the anchor ``y``
can simply be ``m`` itself.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ConstructionError
from repro.graphs.disjoint_paths import (
    are_internally_disjoint,
    truncate_paths_at_set,
    vertex_disjoint_paths,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import connected_components

Node = Hashable
Path = List[Node]


def separated_anchors(graph: Graph, separating_set: Iterable[Node]) -> Dict[Node, Node]:
    """Map every node outside ``M`` to the first node ``M`` separates it from.

    Lemma 2 needs "some node y disconnected from x by M".  One component
    labelling of ``G - M`` answers that for every ``x``: in ``graph.nodes()``
    order, the first node outside ``x``'s component is the root of the
    second component when ``x`` lies in the first, and the root of the first
    otherwise.  Empty when ``M`` leaves fewer than two components.
    """
    remaining = graph.without_nodes(separating_set)
    components = connected_components(remaining)
    if len(components) < 2:
        return {}
    order = remaining.nodes()
    first = components[0]
    second_root = next(node for node in order if node not in first)
    return {node: second_root if node in first else order[0] for node in order}


def kernel_tree_routings(
    graph: Graph, separating_set: Iterable[Node], width: int
) -> Iterator[Tuple[Node, Dict[Node, Path]]]:
    """Yield ``(x, tree routing from x into M)`` for every node ``x`` outside ``M``.

    Nodes come in ``graph.nodes()`` order; every anchor is taken from one
    :func:`separated_anchors` labelling.  This is component KERNEL 1 (and
    MULT 1) of the kernel-family constructions.
    """
    targets = set(separating_set)
    anchors = separated_anchors(graph, targets)
    for node in graph.nodes():
        if node not in targets:
            yield node, tree_routing(graph, node, targets, width, anchor=anchors.get(node))


def tree_routing(
    graph: Graph,
    source: Node,
    separating_set: Iterable[Node],
    width: int,
    anchor: Optional[Node] = None,
) -> Dict[Node, Path]:
    """Build a tree routing from ``source`` to ``width`` nodes of ``separating_set``.

    Parameters
    ----------
    graph:
        The underlying graph.
    source:
        The routing's root ``x``; must not belong to the separating set.
    separating_set:
        The target set ``M``.  It must contain at least ``width`` nodes and
        must either separate the graph with respect to ``source`` or be the
        neighbourhood of the supplied ``anchor``.
    width:
        The number of node-disjoint routes required — ``t + 1`` in the paper.
    anchor:
        Optional node known to be separated from ``source`` by ``M``.  For the
        circular-family constructions ``M = Gamma(m)`` and ``anchor = m``; for
        the kernel construction the anchor is found automatically.

    Returns
    -------
    dict
        A mapping ``m -> path`` with exactly ``width`` entries; each path is a
        simple path from ``source`` to ``m``, the paths are internally
        disjoint, and whenever ``source`` is adjacent to ``m`` the path is the
        direct edge ``[source, m]``.

    Raises
    ------
    ConstructionError
        If the graph does not contain ``width`` disjoint paths into the set
        (i.e. the connectivity assumption of the construction is violated).
    """
    targets = set(separating_set)
    if source in targets:
        raise ConstructionError(
            f"tree routing source {source!r} must not belong to the separating set"
        )
    if width < 1:
        raise ConstructionError("tree routing width must be at least 1")
    if len(targets) < width:
        raise ConstructionError(
            f"separating set has {len(targets)} nodes but width {width} was requested"
        )

    # Shortcut: if the source is adjacent to at least `width` members of the
    # set, `width` direct edges already form a valid tree routing (trivially
    # disjoint, distinct endpoints, shortcut rule satisfied).
    direct_neighbors = graph.neighbors(source) & targets
    if anchor is not None and anchor == source:
        raise ConstructionError("anchor must differ from the source")
    if len(direct_neighbors) >= width:
        chosen = _stable_sample(direct_neighbors, width)
        return {m: [source, m] for m in chosen}

    if anchor is None:
        anchor = separated_anchors(graph, targets).get(source)
        if anchor is None:
            raise ConstructionError(
                f"set {sorted(map(repr, targets))} does not separate {source!r} "
                "from any node; it is not a separating set for this source"
            )
    if anchor in targets:
        raise ConstructionError(f"anchor {anchor!r} must lie outside the separating set")

    paths = vertex_disjoint_paths(graph, source, anchor, k=None)
    truncated = truncate_paths_at_set(paths, targets)
    if len(truncated) < width:
        raise ConstructionError(
            f"only {len(truncated)} disjoint routes from {source!r} into the set "
            f"were found, but {width} are required; the graph does not meet the "
            "connectivity assumption of the construction"
        )

    # Prefer direct edges: Lemma 2's shortcut rule — whenever the source is
    # adjacent to the endpoint, the path must be the single edge.
    selected = _select_routes(graph, source, truncated, width)
    result: Dict[Node, Path] = {}
    for path in selected:
        endpoint = path[-1]
        if graph.has_edge(source, endpoint):
            result[endpoint] = [source, endpoint]
        else:
            result[endpoint] = list(path)
    assert are_internally_disjoint(list(result.values()))
    return result


def _stable_sample(nodes: Iterable[Node], count: int) -> List[Node]:
    """Return ``count`` nodes in a deterministic (repr-sorted) order."""
    ordered = sorted(nodes, key=repr)
    return ordered[:count]


def _select_routes(
    graph: Graph, source: Node, paths: Sequence[Path], width: int
) -> List[Path]:
    """Pick ``width`` routes, preferring short ones and direct edges.

    Keeping the shortest routes keeps the surviving-graph analysis identical
    (the proofs only use disjointness) while producing routes a real network
    would prefer.
    """
    ordered = sorted(
        paths,
        key=lambda path: (0 if graph.has_edge(source, path[-1]) else 1, len(path), repr(path[-1])),
    )
    return [list(path) for path in ordered[:width]]


def tree_routing_to_neighborhood(
    graph: Graph, source: Node, center: Node, width: int
) -> Dict[Node, Path]:
    """Tree routing from ``source`` into ``Gamma(center)`` anchored at ``center``.

    This is the form used by the circular, tri-circular and bipolar
    constructions, where each concentrator node's neighbour set acts as a
    separating set (it separates the concentrator node from the rest of the
    graph).  When ``source`` *is* the center, the routing degenerates to
    ``width`` direct edges to the center's neighbours.
    """
    neighborhood = graph.neighbors(center)
    if source == center:
        if len(neighborhood) < width:
            raise ConstructionError(
                f"node {center!r} has degree {len(neighborhood)} < required width {width}"
            )
        chosen = _stable_sample(neighborhood, width)
        return {m: [source, m] for m in chosen}
    if source in neighborhood:
        # The source itself belongs to the separating set Gamma(center); the
        # constructions never ask for this (the Gamma sets are disjoint from
        # the sources that route to them), so treat it as a usage error.
        raise ConstructionError(
            f"source {source!r} lies inside Gamma({center!r}); tree routing is undefined"
        )
    return tree_routing(graph, source, neighborhood, width, anchor=center)


def verify_tree_routing(
    graph: Graph,
    source: Node,
    separating_set: Iterable[Node],
    routes: Dict[Node, Path],
    width: int,
) -> List[str]:
    """Return a list of violations of the tree-routing definition (empty if valid).

    Checked conditions:

    1. exactly ``width`` routes, each ending at a distinct member of ``M``;
    2. every route is a simple path of ``G`` starting at ``source``;
    3. the routes are internally node-disjoint;
    4. whenever ``source`` is adjacent to an endpoint, the route is the edge.
    """
    from repro.graphs.traversal import is_simple_path

    targets = set(separating_set)
    problems: List[str] = []
    if len(routes) != width:
        problems.append(f"expected {width} routes, found {len(routes)}")
    for endpoint, path in routes.items():
        if endpoint not in targets:
            problems.append(f"endpoint {endpoint!r} is not in the separating set")
        if path[0] != source or path[-1] != endpoint:
            problems.append(f"route to {endpoint!r} has wrong endpoints: {path!r}")
        if not is_simple_path(graph, path):
            problems.append(f"route to {endpoint!r} is not a simple path: {path!r}")
        if graph.has_edge(source, endpoint) and list(path) != [source, endpoint]:
            problems.append(
                f"source is adjacent to {endpoint!r} but the route is not the direct edge"
            )
    if not are_internally_disjoint(list(routes.values())):
        problems.append("routes are not internally node-disjoint")
    return problems
