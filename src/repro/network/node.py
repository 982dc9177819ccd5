"""Network node state for the fixed-route simulator.

A :class:`NetworkNode` is deliberately dumb, matching the paper's model: it
computes no next hop.  It holds a liveness flag, its counters and its
application inbox; the simulator moves every message along the route the
message carries, and a failed node kills any message that reaches it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, List

from repro.exceptions import SimulationError
from repro.network.messages import Message

Node = Hashable


@dataclasses.dataclass
class NodeStats:
    """Per-node counters collected during a simulation run."""

    forwarded: int = 0
    received: int = 0
    originated: int = 0
    dropped: int = 0


class NetworkNode:
    """A single node of the simulated network."""

    def __init__(self, node_id: Node) -> None:
        self.node_id = node_id
        self.alive = True
        self.stats = NodeStats()
        #: Messages whose final destination is this node, after endpoint processing.
        self.delivered: List[Message] = []
        #: Payloads delivered to the application layer on this node.
        self.application_inbox: List[Any] = []

    def fail(self) -> None:
        """Mark the node as failed; it silently drops anything it is handed."""
        self.alive = False

    def repair(self) -> None:
        """Bring the node back (used by the repair / reconfiguration examples)."""
        self.alive = True

    def deliver(self, message: Message, payload: Any) -> None:
        """Hand a fully delivered message to the application layer."""
        if not self.alive:
            self.stats.dropped += 1
            raise SimulationError(f"node {self.node_id!r} is failed; cannot deliver")
        self.delivered.append(message)
        self.application_inbox.append(payload)

    def __repr__(self) -> str:
        status = "up" if self.alive else "FAILED"
        return f"<NetworkNode {self.node_id!r} {status} fwd={self.stats.forwarded}>"
