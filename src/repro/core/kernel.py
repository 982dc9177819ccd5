"""The basic kernel construction (Section 3, after Dolev et al. 1984).

Given a graph of connectivity ``t + 1`` and a minimal separating set ``M`` of
size ``t + 1``, the kernel routing consists of

* Component KERNEL 1 — a tree routing from every node ``x`` outside ``M``
  to ``M``;
* Component KERNEL 2 — a direct edge route between every pair of adjacent
  nodes.

Theorem 3 (Dolev et al.) shows the kernel routing is ``(2t, t)``-tolerant;
Theorem 4 — the paper's first new result — shows the same routing is in fact
``(4, floor(t/2))``-tolerant, i.e. the surviving diameter is at most the
constant 4 whenever fewer than half the connectivity's worth of nodes fail.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.construction import ConstructionResult, Guarantee
from repro.core.routing import Routing
from repro.core.tree_routing import kernel_tree_routings
from repro.exceptions import ConstructionError
from repro.graphs.connectivity import connectivity_parameter
from repro.graphs.graph import Graph
from repro.graphs.separators import is_separating_set, minimum_separator

Node = Hashable


def kernel_separator(
    graph: Graph, t: Optional[int], separating_set: Optional[Iterable[Node]]
) -> Tuple[int, Set[Node]]:
    """Resolve the fault parameter ``t`` and the kernel set ``M`` of a kernel-family routing.

    A supplied ``M`` is returned as given; each construction checks it.
    Otherwise ``M`` is a minimum separator, and when ``t`` is ``None`` it is
    ``|M| - 1``: the graph caches the separator its connectivity is read
    from, so Even's pairs are swept once.  Refusals keep the order of
    resolving ``t`` first: a disconnected graph, then a negative ``t``, then
    the separator's own (too few nodes, complete graph).
    """
    if t is None:
        t = connectivity_parameter(graph)
    if t < 0:
        raise ConstructionError("t must be non-negative")
    if separating_set is None:
        return t, minimum_separator(graph)
    return t, set(separating_set)


def kernel_routing(
    graph: Graph,
    t: Optional[int] = None,
    separating_set: Optional[Iterable[Node]] = None,
) -> ConstructionResult:
    """Construct the kernel routing of Dolev et al. on ``graph``.

    Parameters
    ----------
    graph:
        The underlying network; must be ``(t + 1)``-connected.
    t:
        The fault parameter.  Defaults to ``kappa(G) - 1`` so the routing
        tolerates as many faults as the connectivity allows.
    separating_set:
        Optional separating set ``M`` to use as the kernel.  Must contain at
        least ``t + 1`` nodes and actually separate the graph; when omitted a
        minimum separator (of size exactly ``kappa(G)``) is computed.

    Returns
    -------
    ConstructionResult
        With ``scheme == "kernel"``, the concentrator ``M`` and *two*
        guarantees recorded: the primary one is Theorem 4's
        ``(4, floor(t/2))``; Theorem 3's ``(2t, t)`` is stored under
        ``details["theorem3_guarantee"]``.
    """
    t, kernel_set = kernel_separator(graph, t, separating_set)
    width = t + 1
    if separating_set is not None:
        if len(kernel_set) < width:
            raise ConstructionError(
                f"separating set has {len(kernel_set)} nodes; at least {width} required"
            )
        if not is_separating_set(graph, kernel_set):
            raise ConstructionError("the supplied node set does not separate the graph")
    if len(kernel_set) < width:
        raise ConstructionError(
            f"minimum separator has {len(kernel_set)} nodes (< t + 1 = {width}); "
            "the graph is not (t + 1)-connected for the requested t"
        )

    routing = Routing(graph, bidirectional=True, name="kernel")
    # Component KERNEL 2 first: all direct edge routes.  Tree routing paths
    # that terminate at an adjacent kernel node use the direct edge (the
    # shortcut rule), so the two components never conflict.
    routing.add_all_edge_routes()

    # Component KERNEL 1: a tree routing from every node outside M to M.
    for node, routes in kernel_tree_routings(graph, kernel_set, width):
        for endpoint, path in routes.items():
            routing.set_route(node, endpoint, path)

    concentrator = sorted(kernel_set, key=repr)
    guarantee = Guarantee(diameter_bound=4, max_faults=t // 2, source="Theorem 4")
    return ConstructionResult(
        routing=routing,
        scheme="kernel",
        t=t,
        guarantee=guarantee,
        concentrator=concentrator,
        details={
            "theorem3_guarantee": Guarantee(
                diameter_bound=max(2 * t, 1), max_faults=t, source="Theorem 3"
            ),
            "separating_set_size": len(kernel_set),
        },
    )


def kernel_guarantees(t: int) -> List[Guarantee]:
    """Return the two proven guarantees for the kernel routing at parameter ``t``.

    Theorem 3 gives ``(2t, t)`` (the paper states ``max(2t, 4)`` in the
    introduction when quoting Dolev et al.; the theorem itself is stated as
    ``2t`` and is vacuous for ``t = 0``); Theorem 4 gives ``(4, floor(t/2))``.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    return [
        Guarantee(diameter_bound=max(2 * t, 4), max_faults=t, source="Theorem 3 / Dolev et al."),
        Guarantee(diameter_bound=4, max_faults=t // 2, source="Theorem 4"),
    ]
