"""The fixed-route network simulator (event-driven).

:class:`NetworkSimulator` runs a constructed routing the way the paper's
motivating systems would:

* every message carries its precomputed source route; intermediate nodes
  forward blindly along it (one link traversal per hop, each costing
  ``hop_latency``);
* endpoint services (encryption, checksums) run at the endpoints of every
  route segment and dominate the cost (``service.cost`` per endpoint);
* when nodes have failed, a single route may no longer reach the
  destination; the simulator then delivers the message across a *sequence*
  of surviving routes, exactly the re-routing behaviour whose length the
  surviving route graph's diameter bounds.

The route-sequence planner uses BFS over the surviving route graph — the
"ideal" plan whose length is ``dist(x, y, R(G, rho)/F)``; the broadcast
module implements the paper's decentralised route-counter protocol that
needs no such global knowledge.

The simulator is **event-driven** over the slotted integer-tick engine of
:mod:`repro.network.events`:

* time is quantised at ``resolution`` ticks per latency unit, so hop and
  service delays are exact integers and latency statistics are exact;
* :meth:`inject` starts a delivery at any future tick without blocking —
  many messages progress concurrently, queueing at the per-edge
  :class:`~repro.network.links.Link` transmission queues (capacity,
  bounded buffers, drops);
* :meth:`send` remains the one-shot synchronous API: inject, run the
  engine until this delivery's receipt materialises, return it;
* a delivery is one engine process, the generator :meth:`_deliver`: its
  ``yield`` statements are its steps — endpoint send, each hop, endpoint
  receive — and the engine re-arms the delivery's one event for each, so
  its state lives in generator locals and a step allocates no event,
  closure or link key.  The generator is built when the delivery starts,
  so a pending injection holds only its message, event and start callable;
* each hop checks the next route node's liveness, moves the message onto
  it, and reserves the following link.  Null links take the same path: a
  null link reserves a departure at the arrival tick, so nothing queues on
  it.  Links come from a per-path list with one slot per route position,
  filled the first time a message crosses it, so :attr:`links` holds only
  links that carried traffic;
* a fault kills a message at the first failed node it reaches, and the
  run's clock ends at its last real event (a receipt or a fault action);
* route plans are BFS parent maps cached per origin and invalidated when
  the fault set changes, so steady-state traffic pays O(plan length) per
  message, not O(graph);
* failure receipts report the ticks elapsed for *that message*, never the
  global clock of unrelated pending events.

With the default null link model (infinite capacity, zero queueing) the
engine reproduces the legacy simulator's receipts exactly — delivered
flag, routes used, hop counts, failure reasons, and the serial latency
``hops * hop_latency + 2 * segments * service.cost``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Union

from repro.core.routing import MultiRouting, Routing
from repro.core.surviving import surviving_route_graph
from repro.exceptions import DeliveryError, SimulationError
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_tree
from repro.network.events import EventQueue, ProcessGenerator
from repro.network.links import Link, LinkSpec
from repro.network.messages import DeliveryReceipt, Message
from repro.network.node import NetworkNode
from repro.network.services import EndpointService, NullService

Node = Hashable
AnyRouting = Union[Routing, MultiRouting]

#: Default ticks per latency unit: quantises ``hop_latency=0.1`` to 10
#: ticks and the stock service costs (0.0 / 1.0 / 1.5 / 2.0) exactly.
DEFAULT_RESOLUTION = 100


@dataclasses.dataclass
class SimulatorStats:
    """Aggregate counters for a simulation run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_failed: int = 0
    total_hops: int = 0
    total_routes_used: int = 0
    total_latency_ticks: int = 0

    def delivery_ratio(self) -> float:
        """Return the fraction of sent messages that were delivered."""
        if self.messages_sent == 0:
            return 1.0
        return self.messages_delivered / self.messages_sent


class NetworkSimulator:
    """Simulate point-to-point delivery over a fixed routing with faults.

    Parameters
    ----------
    graph:
        The underlying network.
    routing:
        A constructed routing (or multirouting) over ``graph``.
    service:
        Endpoint service applied at the endpoints of every route segment
        (defaults to no processing).
    hop_latency:
        Simulated time per link traversal (quantised to
        ``round(hop_latency * resolution)`` ticks).
    resolution:
        Ticks per latency unit (see :data:`DEFAULT_RESOLUTION`).
    link:
        Optional :class:`~repro.network.links.LinkSpec` giving every
        directed edge a capacity / buffer / propagation latency.  ``None``
        is the null model: unlimited capacity, zero queueing — the legacy
        cost model.
    """

    def __init__(
        self,
        graph: Graph,
        routing: AnyRouting,
        service: Optional[EndpointService] = None,
        hop_latency: float = 0.1,
        resolution: int = DEFAULT_RESOLUTION,
        link: Optional[LinkSpec] = None,
    ) -> None:
        if not isinstance(resolution, int) or resolution < 1:
            raise SimulationError(
                f"resolution must be a positive integer, got {resolution!r}"
            )
        if hop_latency < 0:
            raise SimulationError(f"hop_latency must be non-negative, got {hop_latency!r}")
        self.graph = graph
        self.routing = routing
        self.service = service if service is not None else NullService()
        self.hop_latency = hop_latency
        self.resolution = resolution
        self.hop_ticks = self._to_ticks(hop_latency)
        self.service_ticks = self._to_ticks(self.service.cost)
        self.link_spec = link if link is not None else LinkSpec()
        self.events = EventQueue()
        self.nodes: Dict[Node, NetworkNode] = {
            node: NetworkNode(node) for node in graph.nodes()
        }
        self.stats = SimulatorStats()
        #: Lazily created per directed edge actually carrying traffic.
        self.links: Dict[Tuple[Node, Node], Link] = {}
        self._failed: set = set()
        self._surviving_cache: Optional[DiGraph] = None
        #: BFS parent maps per origin over the surviving route graph,
        #: invalidated whenever the fault set changes.
        self._plan_cache: Dict[Node, Dict[Node, Optional[Node]]] = {}
        #: Chosen surviving path per route segment, invalidated with the
        #: plans: steady-state traffic skips the per-node fault scan.
        self._route_cache: Dict[Tuple[Node, Node], Tuple[Node, ...]] = {}
        #: Link per position of each route path, filled as hops first cross
        #: it (``links`` holds only links that carried traffic).
        self._path_links: Dict[Tuple[Node, ...], List[Optional[Link]]] = {}

    def _to_ticks(self, latency: float) -> int:
        """Quantise a latency in time units to engine ticks."""
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency!r}")
        return int(round(latency * self.resolution))

    # ------------------------------------------------------------------
    # Fault management
    # ------------------------------------------------------------------
    def failed_nodes(self) -> List[Node]:
        """Return the currently failed nodes."""
        return [node_id for node_id, node in self.nodes.items() if not node.alive]

    def fail_node(self, node_id: Node) -> None:
        """Fail a node (it drops everything it is handed from now on).

        Under traffic, failing a node mid-run kills the in-flight messages
        that reach it afterwards — their deliveries fail with the usual
        "reached failed node" receipts.
        """
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id!r}")
        self.nodes[node_id].fail()
        self._failed.add(node_id)
        self._invalidate_plans()

    def fail_nodes(self, node_ids: Iterable[Node]) -> None:
        """Fail several nodes at once."""
        for node_id in node_ids:
            self.fail_node(node_id)

    def repair_node(self, node_id: Node) -> None:
        """Repair a previously failed node."""
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id!r}")
        self.nodes[node_id].repair()
        self._failed.discard(node_id)
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        self._surviving_cache = None
        self._plan_cache.clear()
        self._route_cache.clear()

    # ------------------------------------------------------------------
    # Surviving route graph bookkeeping
    # ------------------------------------------------------------------
    def surviving_graph(self) -> DiGraph:
        """Return (and cache) the surviving route graph for the current faults."""
        if self._surviving_cache is None:
            self._surviving_cache = surviving_route_graph(
                self.graph, self.routing, self.failed_nodes()
            )
        return self._surviving_cache

    def plan_route_sequence(self, origin: Node, destination: Node) -> List[Tuple[Node, Node]]:
        """Return the sequence of route segments used to deliver a message.

        Each element is an ordered pair (segment source, segment destination)
        for which the routing defines a surviving route.  Raises
        :class:`DeliveryError` when the destination is unreachable in the
        surviving route graph (more faults than the routing tolerates, or a
        faulty endpoint).  The BFS parent map is cached per origin until the
        fault set changes, so repeated plans from one origin are O(length).
        """
        surviving = self.surviving_graph()
        if not surviving.has_node(origin):
            raise DeliveryError(f"origin {origin!r} is failed or unknown")
        if not surviving.has_node(destination):
            raise DeliveryError(f"destination {destination!r} is failed or unknown")
        if origin == destination:
            return []
        parents = self._plan_cache.get(origin)
        if parents is None:
            parents = bfs_tree(surviving, origin)
            self._plan_cache[origin] = parents
        if destination not in parents:
            raise DeliveryError(
                f"no sequence of surviving routes connects {origin!r} to {destination!r}"
            )
        chain: List[Node] = [destination]
        while chain[-1] != origin:
            parent = parents[chain[-1]]
            assert parent is not None
            chain.append(parent)
        chain.reverse()
        return list(zip(chain, chain[1:]))

    def _segment_path(self, source: Node, target: Node) -> Tuple[Node, ...]:
        """Return a surviving route path for one segment of the plan.

        Cached per segment until the fault set changes, so steady-state
        traffic pays the per-node fault scan once per (source, target).
        """
        cached = self._route_cache.get((source, target))
        if cached is not None:
            return cached
        failed = self._failed
        if isinstance(self.routing, MultiRouting):
            for candidate in self.routing.get_routes(source, target):
                if not any(node in failed for node in candidate):
                    path = tuple(candidate)
                    break
            else:
                raise DeliveryError(
                    f"all parallel routes {source!r}->{target!r} are faulty"
                )
        else:
            candidate = self.routing.get_route(source, target)
            if candidate is None or any(node in failed for node in candidate):
                raise DeliveryError(
                    f"route {source!r}->{target!r} is missing or faulty"
                )
            path = tuple(candidate)
        self._route_cache[(source, target)] = path
        return path

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def link_between(self, source: Node, target: Node) -> Link:
        """Return (creating on first use) the link for one directed edge."""
        key = (source, target)
        link = self.links.get(key)
        if link is None:
            spec = self.link_spec
            latency = spec.latency if spec.latency is not None else self.hop_ticks
            link = Link(source, target, latency, spec.capacity, spec.buffer)
            self.links[key] = link
        return link

    # ------------------------------------------------------------------
    # Message delivery
    # ------------------------------------------------------------------
    def send(self, origin: Node, destination: Node, payload: Any) -> DeliveryReceipt:
        """Deliver ``payload`` from ``origin`` to ``destination`` and return a receipt.

        The delivery is simulated through the event engine; the returned
        receipt records the number of route segments used (which the
        theorems bound by the surviving diameter), the total hop count, and
        the simulated latency including endpoint-service processing.
        Synchronous convenience over :meth:`inject` — the engine runs until
        this delivery completes (other pending traffic progresses too).
        """
        box: List[DeliveryReceipt] = []
        self.inject(origin, destination, payload, on_complete=box.append)
        while not box:
            if not self.events.step():
                raise SimulationError(
                    "event queue drained before the delivery completed"
                )
        return box[0]

    def inject(
        self,
        origin: Node,
        destination: Node,
        payload: Any,
        delay: int = 0,
        on_complete: Optional[Callable[[DeliveryReceipt], None]] = None,
    ) -> Message:
        """Schedule a delivery to start ``delay`` ticks from now (non-blocking).

        The message is planned against the fault set at its *start tick*,
        not at injection time — timed fault schedules change the outcomes
        of messages injected before the fault strikes.  ``on_complete``
        receives the :class:`DeliveryReceipt` when the delivery finishes
        (delivered, failed, or dropped at a full link buffer).  A delay the
        engine refuses raises :class:`SimulationError` and counts no message.
        """
        message = Message(origin=origin, final_destination=destination, payload=payload)
        message.trace.append(origin)
        self.events.process(
            delay,
            functools.partial(self._deliver, message, on_complete),
            kind="delivery",
        )
        self.stats.messages_sent += 1
        return message

    def _deliver(
        self,
        message: Message,
        on_complete: Optional[Callable[[DeliveryReceipt], None]],
    ) -> ProcessGenerator:
        """Carry ``message`` to its destination: the engine process of one delivery.

        Each ``yield`` hands the engine the ticks to the delivery's next
        step — the endpoint send of a route segment, each hop over a link,
        the endpoint receive — and the engine re-arms the delivery's one
        event for it, so ``now`` advances by exactly what was yielded.  A
        failed segment source drops the message; a failed node kills it when
        it arrives there; a full link buffer drops it.
        """
        nodes = self.nodes
        service = self.service
        service_ticks = self.service_ticks
        now = message.injected_tick = self.events.now
        hops = 0
        try:
            plan = self.plan_route_sequence(message.origin, message.final_destination)
        except DeliveryError as exc:
            self._finish(message, on_complete, hops, False, str(exc))
            return
        nodes[message.origin].stats.originated += 1
        payload = message.payload
        trace = message.trace
        for source, target in plan:
            try:
                path = self._segment_path(source, target)
            except DeliveryError as exc:
                self._finish(message, on_complete, hops, False, str(exc))
                return
            # Service errors (e.g. checksum mismatches) propagate out of the
            # engine run, matching the legacy simulator's synchronous raise.
            message.payload = service.on_send(payload, source, target)
            message.attach_route(path)
            links = self._path_links.get(path)
            if links is None:
                links = self._path_links[path] = [None] * (len(path) - 1)
            yield service_ticks  # endpoint send
            now += service_ticks
            node_id = source
            node = nodes[node_id]
            if not node.alive:
                node.stats.dropped += 1
                reason = f"node {node_id!r} is failed and dropped the message"
                self._finish(message, on_complete, hops, False, reason)
                return
            for index in range(1, len(path)):
                node.stats.forwarded += 1
                next_id = path[index]
                link = links[index - 1]
                if link is None:
                    link = links[index - 1] = self.link_between(node_id, next_id)
                depart = link.reserve(now)
                if depart is None:
                    reason = (
                        f"link {node_id!r}->{next_id!r} dropped "
                        f"message {message.message_id} (buffer full)"
                    )
                    self._finish(message, on_complete, hops, False, reason)
                    return
                arrive = depart + link.latency
                yield arrive - now  # hop
                now = arrive
                node_id = next_id
                node = nodes[node_id]
                if not node.alive:
                    reason = f"message {message.message_id} reached failed node {node_id!r}"
                    self._finish(message, on_complete, hops, False, reason)
                    return
                message.hop_index = index
                trace.append(node_id)
                hops += 1
            node.stats.received += 1
            yield service_ticks  # endpoint receive
            now += service_ticks
            # The message still carries the segment's wire payload.
            payload = service.on_receive(message.payload, source, target)
        try:
            nodes[message.final_destination].deliver(message, payload)
        except SimulationError as exc:
            # The destination failed while the delivery was in flight.
            self._finish(message, on_complete, hops, False, str(exc))
            return
        self._finish(message, on_complete, hops, True)

    def _finish(
        self,
        message: Message,
        on_complete: Optional[Callable[[DeliveryReceipt], None]],
        hops: int,
        delivered: bool,
        reason: str = "",
    ) -> None:
        now = self.events.now
        message.finished_tick = now
        ticks = now - message.injected_tick
        if delivered:
            self.stats.messages_delivered += 1
            self.stats.total_hops += hops
            self.stats.total_routes_used += message.route_counter
            self.stats.total_latency_ticks += ticks
        else:
            self.stats.messages_failed += 1
        receipt = DeliveryReceipt(
            message=message,
            delivered=delivered,
            routes_used=message.route_counter,
            hops=hops,
            latency=ticks / self.resolution,
            failure_reason=reason,
            latency_ticks=ticks,
        )
        if on_complete is not None:
            on_complete(receipt)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def max_queue_depth(self) -> int:
        """Return the deepest queue any link reached during the run."""
        return max(
            (link.stats.max_queue_depth for link in self.links.values()), default=0
        )

    def dropped_at_links(self) -> int:
        """Return the number of messages dropped at full link buffers."""
        return sum(link.stats.dropped for link in self.links.values())

    def describe(self) -> str:
        """Return a one-paragraph summary of the simulator state."""
        failed = self.failed_nodes()
        return (
            f"NetworkSimulator over {self.graph!r} with routing "
            f"{getattr(self.routing, 'name', '?')!r}: "
            f"{len(failed)} failed nodes, "
            f"{self.stats.messages_delivered}/{self.stats.messages_sent} delivered, "
            f"avg routes/message="
            f"{(self.stats.total_routes_used / self.stats.messages_delivered):.2f}"
            if self.stats.messages_delivered
            else f"NetworkSimulator over {self.graph!r}: no deliveries yet"
        )
