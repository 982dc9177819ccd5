"""The route-counter broadcast protocol (Section 1).

The paper bounds the number of broadcast rounds needed to recompute routing
tables after failures by the diameter of the surviving route graph, using the
following protocol: a node broadcasts by sending a message, tagged with a
*route counter*, along all of its routes; every node that receives the message
for the first time re-sends it along all of *its* routes with the counter
incremented; the message is discarded once the counter exceeds the diameter
bound.

:func:`route_counter_broadcast` implements that protocol on top of the
surviving route graph semantics (a route delivers iff it avoids every faulty
node), and reports the number of rounds actually needed, which the benchmarks
compare against the diameter bound of the construction in use.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Iterable, List, Optional, Set, Union

from repro.core.routing import MultiRouting, Routing
from repro.core.surviving import surviving_route_graph
from repro.exceptions import SimulationError
from repro.graphs.graph import Graph

Node = Hashable
AnyRouting = Union[Routing, MultiRouting]


@dataclasses.dataclass
class BroadcastResult:
    """Outcome of one route-counter broadcast."""

    origin: Node
    reached: Set[Node]
    rounds_used: int
    counter_limit: Optional[int]
    messages_sent: int
    discarded: int

    @property
    def complete(self) -> bool:
        """``True`` when every surviving node received the broadcast."""
        return self.rounds_used >= 0 and self._expected is not None and self.reached >= self._expected

    # populated by the broadcast routine
    _expected: Optional[Set[Node]] = None

    def coverage(self) -> float:
        """Fraction of surviving nodes reached."""
        if not self._expected:
            return 0.0
        return len(self.reached & self._expected) / len(self._expected)

    def __repr__(self) -> str:
        return (
            f"<BroadcastResult origin={self.origin!r} reached={len(self.reached)} "
            f"rounds={self.rounds_used} messages={self.messages_sent} "
            f"discarded={self.discarded}>"
        )


def route_counter_broadcast(
    graph: Graph,
    routing: AnyRouting,
    origin: Node,
    faults: Iterable[Node] = (),
    counter_limit: Optional[int] = None,
    index=None,
) -> BroadcastResult:
    """Run the Section 1 route-counter broadcast from ``origin``.

    Parameters
    ----------
    graph, routing:
        The network and its fixed routing.
    origin:
        The broadcasting node (must be non-faulty).
    faults:
        Currently failed nodes.
    counter_limit:
        The route-counter threshold above which messages are discarded.  The
        paper sets this to (a bound on) the surviving route graph's diameter;
        passing ``None`` disables discarding, which lets tests confirm that
        the number of rounds needed *without* a limit still never exceeds the
        diameter.
    index:
        Optional :class:`~repro.core.route_index.RouteIndex` for ``(graph,
        routing)``: the surviving route graph driving the protocol is then
        derived incrementally instead of re-walking every route, which
        matters when the route tables are recomputed after every failure
        event.

    Returns
    -------
    BroadcastResult
        ``rounds_used`` is the round in which the last new node was reached
        (0 if the origin is alone); ``messages_sent`` counts every route
        transmission, and ``discarded`` counts transmissions suppressed by the
        counter limit.
    """
    fault_set = set(faults)
    surviving = surviving_route_graph(graph, routing, fault_set, index=index)
    return _broadcast_on(surviving, graph, origin, fault_set, counter_limit)


def _broadcast_on(
    surviving,
    graph: Graph,
    origin: Node,
    fault_set: Set[Node],
    counter_limit: Optional[int],
) -> BroadcastResult:
    """Run the route-counter protocol on a pre-built surviving route graph."""
    if origin in fault_set:
        raise SimulationError(f"broadcast origin {origin!r} is faulty")
    if not graph.has_node(origin):
        raise SimulationError(f"broadcast origin {origin!r} is not in the graph")

    expected = set(surviving.nodes())

    reached: Set[Node] = {origin}
    frontier: Set[Node] = {origin}
    rounds_used = 0
    messages_sent = 0
    discarded = 0
    round_number = 0

    while frontier:
        round_number += 1
        if counter_limit is not None and round_number > counter_limit:
            # Every message that would be sent this round carries a counter
            # exceeding the limit and is discarded.
            discarded += sum(len(surviving.successors(node)) for node in frontier)
            break
        next_frontier: Set[Node] = set()
        for node in frontier:
            for neighbor in surviving.successors(node):
                messages_sent += 1
                if neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.add(neighbor)
        if next_frontier:
            rounds_used = round_number
        frontier = next_frontier

    result = BroadcastResult(
        origin=origin,
        reached=reached,
        rounds_used=rounds_used,
        counter_limit=counter_limit,
        messages_sent=messages_sent,
        discarded=discarded,
    )
    result._expected = expected
    return result


def counter_limit_suffices(
    graph: Graph,
    routing: AnyRouting,
    counter_limit: float,
    faults: Iterable[Node] = (),
    index=None,
) -> bool:
    """Decide whether ``counter_limit`` lets every broadcast complete.

    A route-counter broadcast reaches every surviving node from every origin
    iff the counter limit is at least the diameter of the surviving route
    graph — counter limits *are* diameter bounds.  This predicate therefore
    answers the deployment question ("is this limit safe after these
    faults?") through the bounded *decision* path of
    :meth:`~repro.core.route_index.RouteIndex.surviving_diameter_at_most`
    instead of an exact diameter evaluation: each source's BFS is abandoned
    the moment its eccentricity exceeds the limit and the first violating
    source short-circuits the whole check.  An index is built on the fly
    when none is supplied (one pass over the routes — the same cost a single
    exact evaluation would have paid before its BFS even started).
    """
    from repro.core.route_index import EVAL_BACKEND_BITSET, RouteIndex
    from repro.core.surviving import _check_index

    if index is None:
        # A throwaway index for one decision: a numpy kernel build would
        # never pay back on a single evaluation.
        index = RouteIndex(graph, routing, backend=EVAL_BACKEND_BITSET)
    else:
        _check_index(graph, routing, index)
    return index.surviving_diameter_at_most(faults, counter_limit)


def broadcast_rounds_from_all(
    graph: Graph,
    routing: AnyRouting,
    faults: Iterable[Node] = (),
    counter_limit: Optional[int] = None,
    index=None,
) -> Dict[Node, int]:
    """Run the broadcast from every surviving node; return rounds used per origin.

    The maximum over all origins is the empirical counterpart of the
    surviving-diameter bound of Section 1.  The surviving route graph is
    built once (through ``index`` when given) and shared by every origin's
    run instead of being rebuilt per origin.
    """
    fault_set = set(faults)
    surviving = surviving_route_graph(graph, routing, fault_set, index=index)
    rounds: Dict[Node, int] = {}
    for node in graph.nodes():
        if node in fault_set:
            continue
        result = _broadcast_on(surviving, graph, node, fault_set, counter_limit)
        rounds[node] = result.rounds_used
    return rounds
