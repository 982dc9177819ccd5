"""Changing the network (Section 6): concentrator clique augmentation.

The paper's final observation is that a designer allowed to *add links* can
take the basic kernel construction and turn its concentrator (a minimal
separating set ``M`` of ``t + 1`` nodes) into a clique.  The cost is at most
``t(t + 1)/2`` new links, and the payoff is a ``(3, t)``-tolerant routing on
the modified network: every surviving node still reaches a surviving
concentrator member in one hop (Lemma 1), and concentrator members are now
pairwise adjacent, so any two surviving nodes are at distance at most 3.

Whether the same can be achieved with only ``O(t)`` added edges is left open
by the paper (Open Problem 2); the benchmark for this experiment reports the
number of added edges alongside the measured worst-case diameter.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.core.construction import ConstructionResult, Guarantee
from repro.core.kernel import kernel_separator
from repro.core.routing import Routing
from repro.core.tree_routing import kernel_tree_routings
from repro.exceptions import ConstructionError
from repro.graphs.graph import Graph
from repro.graphs.operations import add_clique
from repro.graphs.separators import is_separating_set

Node = Hashable


def clique_augmented_kernel_routing(
    graph: Graph,
    t: Optional[int] = None,
    separating_set: Optional[Iterable[Node]] = None,
) -> ConstructionResult:
    """Build the Section 6 clique-augmented kernel routing.

    Parameters
    ----------
    graph:
        The original ``(t + 1)``-connected network (left unmodified; the
        returned construction is built on an augmented copy).
    t:
        Fault parameter; defaults to ``kappa(G) - 1`` computed on the
        *original* graph.
    separating_set:
        Optional explicit separating set of the original graph.

    Returns
    -------
    ConstructionResult
        The routing is defined over the augmented graph (available as
        ``result.graph`` / ``result.details["augmented_graph"]``); the list of
        added edges is recorded in ``details["added_edges"]`` so experiments
        can verify the ``<= t(t+1)/2`` cost bound.
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

    augmented, added_edges = add_clique(graph, kernel_set)
    augmented.name = f"{graph.name or 'G'}+clique(M)"

    routing = Routing(augmented, bidirectional=True, name="kernel+clique")
    routing.add_all_edge_routes()
    # Tree routings are built in the *original* graph so that the added
    # links are used exclusively for concentrator-to-concentrator hops —
    # they exist only between kernel nodes anyway, and keeping the tree
    # routings unchanged shows the added edges alone account for the
    # improvement from diameter 4 to 3.
    for node, routes in kernel_tree_routings(graph, kernel_set, width):
        for endpoint, path in routes.items():
            routing.set_route(node, endpoint, path)

    members = sorted(kernel_set, key=repr)
    max_added = t * (t + 1) // 2
    guarantee = Guarantee(diameter_bound=3, max_faults=t, source="Section 6 (network change)")
    return ConstructionResult(
        routing=routing,
        scheme="kernel+clique",
        t=t,
        guarantee=guarantee,
        concentrator=members,
        details={
            "added_edges": added_edges,
            "added_edge_count": len(added_edges),
            "added_edge_bound": max_added,
            "augmented_graph": augmented,
            "original_graph": graph,
        },
    )


def added_edge_cost(t: int) -> int:
    """Return the paper's bound ``t(t + 1)/2`` on the number of added links."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return t * (t + 1) // 2
