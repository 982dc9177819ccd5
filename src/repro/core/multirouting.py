"""Multiroutings (Section 6): relaxing the one-route-per-pair rule.

Section 6 of the paper observes that allowing several parallel routes per
ordered pair buys dramatically smaller surviving diameters:

1. with ``t + 1`` parallel routes per pair one can use ``t + 1`` internally
   disjoint paths everywhere, so the surviving graph is complete (diameter 1)
   for any ``|F| <= t``;
2. with ``t + 1`` parallel routes *only between concentrator nodes*, the
   kernel routing augmented with those multiroutes achieves diameter 3;
3. with at most two parallel routes per pair, a single separating set
   suffices to build a bipolar-like routing (components MULT 1–3).

All three variants are implemented here on top of
:class:`repro.core.routing.MultiRouting`.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Optional

from repro.core.construction import ConstructionResult, Guarantee
from repro.core.kernel import kernel_separator
from repro.core.routing import MultiRouting
from repro.core.tree_routing import kernel_tree_routings, tree_routing_to_neighborhood
from repro.exceptions import ConstructionError
from repro.graphs.connectivity import connectivity_parameter
from repro.graphs.disjoint_paths import vertex_disjoint_paths
from repro.graphs.graph import Graph
from repro.graphs.separators import is_separating_set

Node = Hashable


def full_multirouting(graph: Graph, t: Optional[int] = None) -> ConstructionResult:
    """Section 6, observation (1): ``t + 1`` disjoint routes between every pair.

    Every ordered pair of nodes receives ``t + 1`` internally disjoint paths;
    with at most ``t`` faults at least one survives, so the surviving route
    graph is the complete graph on the surviving nodes (diameter 1).

    The route table is quadratic in the number of nodes with ``t + 1`` paths
    per pair, so this construction is only practical for small networks — the
    very trade-off (table size versus tolerance) that motivates the paper's
    miserly single-route model.
    """
    if t is None:
        t = connectivity_parameter(graph)
    if t < 0:
        raise ConstructionError("t must be non-negative")
    width = t + 1

    routing = MultiRouting(graph, bidirectional=True, name="multi-full")
    nodes = sorted(graph.nodes(), key=repr)
    for index, source in enumerate(nodes):
        for target in nodes[index + 1 :]:
            paths = vertex_disjoint_paths(graph, source, target, k=width)
            if len(paths) < width:
                raise ConstructionError(
                    f"only {len(paths)} disjoint paths between {source!r} and "
                    f"{target!r}; the graph is not (t + 1)-connected"
                )
            for path in paths:
                routing.add_route(source, target, path)

    guarantee = Guarantee(diameter_bound=1, max_faults=t, source="Section 6 (1)")
    return ConstructionResult(
        routing=routing,
        scheme="multi-full",
        t=t,
        guarantee=guarantee,
        concentrator=[],
        details={"routes_per_pair": width},
    )


def kernel_multirouting(
    graph: Graph,
    t: Optional[int] = None,
    separating_set: Optional[Iterable[Node]] = None,
) -> ConstructionResult:
    """Section 6, observation (2): kernel routing + multiroutes inside the kernel.

    The ordinary kernel routing (tree routings into a minimal separating set
    ``M`` plus edge routes) is augmented with ``t + 1`` parallel disjoint
    routes between every pair of concentrator nodes.  Any two surviving nodes
    then reach surviving concentrator members in one hop (Lemma 1) which are
    themselves mutually adjacent in the surviving graph, for a diameter of 3.
    """
    t, kernel_set = kernel_separator(graph, t, separating_set)
    width = t + 1
    if separating_set is not None:
        if not is_separating_set(graph, kernel_set):
            raise ConstructionError("the supplied node set does not separate the graph")
    if len(kernel_set) < width:
        raise ConstructionError(
            f"separating set has {len(kernel_set)} nodes; at least {width} required"
        )

    routing = MultiRouting(graph, bidirectional=True, name="multi-kernel")
    for u, v in graph.edges():
        routing.add_route(u, v, (u, v))
    for node, routes in kernel_tree_routings(graph, kernel_set, width):
        for endpoint, path in routes.items():
            routing.add_route(node, endpoint, path)
    members = sorted(kernel_set, key=repr)
    for source, target in itertools.combinations(members, 2):
        for path in vertex_disjoint_paths(graph, source, target, k=width):
            routing.add_route(source, target, path)

    guarantee = Guarantee(diameter_bound=3, max_faults=t, source="Section 6 (2)")
    return ConstructionResult(
        routing=routing,
        scheme="multi-kernel",
        t=t,
        guarantee=guarantee,
        concentrator=members,
        details={"separating_set_size": len(kernel_set)},
    )


def single_tree_multirouting(
    graph: Graph,
    t: Optional[int] = None,
    separating_set: Optional[Iterable[Node]] = None,
) -> ConstructionResult:
    """Section 6, observation (3): a bipolar-like routing with two routes per pair.

    Components (all bidirectional):

    * MULT 1 — a tree routing from every node outside ``M`` to ``M``;
    * MULT 2 — tree routings from every concentrator node ``m_j`` to the
      neighbour set ``Gamma(m_i)`` of every concentrator node;
    * MULT 3 — direct edge routes.

    Because MULT 1 and MULT 2 may both assign a route to the same pair (a
    ``Gamma`` node routed to from the concentrator also routes into ``M``),
    the result is a multirouting with at most two routes per pair.  The paper
    sketches this as an analogue of the bipolar construction concentrated on a
    single separating set; empirically it achieves small constant surviving
    diameters (the benchmarks record the measured worst case; we conservatively
    tag it with the bipolar-style bound of 4).
    """
    t, kernel_set = kernel_separator(graph, t, separating_set)
    width = t + 1
    if separating_set is not None:
        if not is_separating_set(graph, kernel_set):
            raise ConstructionError("the supplied node set does not separate the graph")
    if len(kernel_set) < width:
        raise ConstructionError(
            f"separating set has {len(kernel_set)} nodes; at least {width} required"
        )
    members = sorted(kernel_set, key=repr)

    routing = MultiRouting(graph, bidirectional=True, name="multi-single-tree")
    # Component MULT 3: edge routes.
    for u, v in graph.edges():
        routing.add_route(u, v, (u, v))
    # Component MULT 1: tree routings into M.
    for node, routes in kernel_tree_routings(graph, kernel_set, width):
        for endpoint, path in routes.items():
            routing.add_route(node, endpoint, path)
    # Component MULT 2: tree routings from each concentrator node to each
    # member's neighbour set.
    for member in members:
        for center in members:
            if member != center and graph.has_edge(member, center):
                # The centre's neighbourhood contains `member` itself in this
                # case; tree routings are undefined from inside the target
                # set, and the direct edge route already covers the pair.
                continue
            routes = tree_routing_to_neighborhood(graph, member, center, width)
            for endpoint, path in routes.items():
                routing.add_route(member, endpoint, path)

    guarantee = Guarantee(diameter_bound=4, max_faults=t, source="Section 6 (3)")
    return ConstructionResult(
        routing=routing,
        scheme="multi-single-tree",
        t=t,
        guarantee=guarantee,
        concentrator=members,
        details={"separating_set_size": len(kernel_set), "max_parallel_routes": 2},
    )
