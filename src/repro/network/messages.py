"""Message model for the fixed-route network simulator.

The paper's system model attaches the precomputed route to every message so
intermediate nodes can forward it without computing a next hop, and all
"interesting" processing (encryption, error-correction, re-routing decisions)
happens at route *endpoints*.  :class:`Message` captures exactly that: a
payload, the attached source route, a hop pointer within the route, and the
route counter used by the broadcast protocol of Section 1.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Hashable, List, Optional, Sequence, Tuple

Node = Hashable

_message_ids = itertools.count(1)


@dataclasses.dataclass(slots=True)
class Message:
    """A message travelling along a fixed, precomputed route.

    Slotted: a message holds exactly its fields, with no per-instance
    ``__dict__``.

    Attributes
    ----------
    source, destination:
        Endpoints of the *current route segment* (not necessarily the original
        sender / final recipient: delivery across a faulty network traverses a
        sequence of routes, each with its own endpoints).
    origin, final_destination:
        The original sender and the ultimate recipient.
    payload:
        Application data (opaque to the network; endpoint services may
        transform it, e.g. encrypt / append checksums).
    route:
        The attached source route — the exact node sequence the message must
        follow for the current segment.
    hop_index:
        Position within ``route`` (0 = at the segment source).
    route_counter:
        Number of routes traversed so far; the broadcast protocol discards
        messages whose counter exceeds the diameter bound.
    trace:
        Every node the message has visited, across all segments (diagnostics).
    injected_tick, finished_tick:
        Engine ticks at which the delivery started / completed (``None``
        until the event-driven simulator processes the message); their
        difference is the receipt's exact ``latency_ticks``.
    """

    origin: Node
    final_destination: Node
    payload: Any
    source: Node = None
    destination: Node = None
    route: Tuple[Node, ...] = ()
    hop_index: int = 0
    route_counter: int = 0
    message_id: int = dataclasses.field(default_factory=lambda: next(_message_ids))
    trace: List[Node] = dataclasses.field(default_factory=list)
    injected_tick: Optional[int] = None
    finished_tick: Optional[int] = None

    def attach_route(self, route: Sequence[Node]) -> None:
        """Attach a new source route and reset the hop pointer.

        Incrementing ``route_counter`` here mirrors the paper's broadcast
        protocol: the counter goes up once per route traversed.
        """
        self.route = tuple(route)
        self.source = self.route[0]
        self.destination = self.route[-1]
        self.hop_index = 0
        self.route_counter += 1

    def __repr__(self) -> str:
        return (
            f"<Message #{self.message_id} {self.origin!r}->{self.final_destination!r} "
            f"segment={self.source!r}->{self.destination!r} "
            f"hops={len(self.trace)} routes={self.route_counter}>"
        )


@dataclasses.dataclass
class DeliveryReceipt:
    """Summary of a completed (or failed) end-to-end delivery.

    ``latency`` is simulated time units (``latency_ticks / resolution``);
    ``latency_ticks`` is the exact integer the event engine measured for
    *this message* — failure receipts report the ticks the message itself
    consumed, never the global clock drift of unrelated pending events.
    """

    message: Message
    delivered: bool
    routes_used: int
    hops: int
    latency: float
    failure_reason: str = ""
    latency_ticks: Optional[int] = None

    def __repr__(self) -> str:
        status = "delivered" if self.delivered else f"FAILED ({self.failure_reason})"
        return (
            f"<DeliveryReceipt #{self.message.message_id} {status} "
            f"routes={self.routes_used} hops={self.hops} latency={self.latency}>"
        )
