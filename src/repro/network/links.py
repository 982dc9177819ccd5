"""The link/flow layer: capacity, bounded FIFO buffers, queueing, drops.

The paper's cost model charges a message one ``hop_latency`` per link
traversal — implicitly assuming every link can carry unlimited traffic at
once.  Real traffic queues.  A :class:`Link` models one **directed edge** of
the network as a FIFO transmission queue:

* ``capacity`` messages may *depart* per tick (the link's serialisation
  rate); further arrivals wait in the queue and pick up queueing delay;
* the queue holds at most ``buffer`` waiting messages — an arrival that
  finds it full is **dropped** (counted, and surfaced as a failed
  delivery);
* a departed message still takes ``latency`` ticks of propagation before it
  arrives at the far end.

``capacity=None`` (the default) is the **null model**: no serialisation, no
queueing, no drops — every message departs the instant it arrives, so the
simulator reproduces the legacy per-hop loop's receipts exactly.  That
equivalence is pinned by the hypothesis parity suite in
``tests/network/test_legacy_parity.py``.

Reservation is O(1) amortised per message: the link keeps a slot cursor
``(tick, used)`` that only moves forward (simulation time is monotone), and
a deque of pending departure ticks whose head expires as time passes.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Hashable, Optional

Node = Hashable


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """Configuration shared by every link of a simulated network.

    Parameters
    ----------
    latency:
        Propagation delay in ticks per traversal; ``None`` (default) means
        "use the simulator's quantised ``hop_latency``".
    capacity:
        Messages that may depart per tick; ``None`` disables serialisation
        entirely (the null model — no queueing, no drops).
    buffer:
        Maximum queued messages (including those in transmission slots);
        ``None`` means unbounded.  Only meaningful with a capacity.
    """

    latency: Optional[int] = None
    capacity: Optional[int] = None
    buffer: Optional[int] = None

    def __post_init__(self) -> None:
        if self.latency is not None and (
            not isinstance(self.latency, int) or self.latency < 0
        ):
            raise ValueError(f"link latency must be a non-negative int, got {self.latency!r}")
        if self.capacity is not None and (
            not isinstance(self.capacity, int) or self.capacity < 1
        ):
            raise ValueError(f"link capacity must be a positive int, got {self.capacity!r}")
        if self.buffer is not None and (
            not isinstance(self.buffer, int) or self.buffer < 0
        ):
            raise ValueError(f"link buffer must be a non-negative int, got {self.buffer!r}")
        if self.capacity is None and self.buffer is not None:
            raise ValueError("a link buffer bound needs a capacity (else nothing queues)")

    def describe(self) -> str:
        """Render the spec compactly for manifests and reports."""
        if self.capacity is None:
            return "null"
        parts = [f"capacity={self.capacity}"]
        if self.buffer is not None:
            parts.append(f"buffer={self.buffer}")
        if self.latency is not None:
            parts.append(f"latency={self.latency}")
        return ",".join(parts)


@dataclasses.dataclass
class LinkStats:
    """Per-link counters collected during a run."""

    entered: int = 0
    dropped: int = 0
    max_queue_depth: int = 0
    queue_wait_ticks: int = 0


class Link:
    """One directed edge's transmission queue (see the module docstring)."""

    __slots__ = (
        "source",
        "target",
        "latency",
        "capacity",
        "buffer",
        "stats",
        "_slot_tick",
        "_slot_used",
        "_departures",
    )

    def __init__(
        self,
        source: Node,
        target: Node,
        latency: int,
        capacity: Optional[int] = None,
        buffer: Optional[int] = None,
    ) -> None:
        self.source = source
        self.target = target
        self.latency = latency
        self.capacity = capacity
        self.buffer = buffer
        self.stats = LinkStats()
        self._slot_tick = -1
        self._slot_used = 0
        #: Departure ticks of queued messages, oldest first (monotone).
        self._departures: Deque[int] = collections.deque()

    def queue_depth(self, now: int) -> int:
        """Return the number of messages queued (not yet departed) at ``now``."""
        departures = self._departures
        while departures and departures[0] < now:
            departures.popleft()
        return len(departures)

    def reserve(self, now: int) -> Optional[int]:
        """Reserve a departure slot for a message entering the link at ``now``.

        Returns the departure tick (``>= now``), or ``None`` when the
        bounded buffer is full and the message is dropped.  Simulation time
        is monotone, so ``now`` never decreases across calls.
        """
        stats = self.stats
        capacity = self.capacity
        if capacity is None:
            stats.entered += 1
            return now
        # queue_depth(now), inlined: this runs once per capacity-limited hop.
        departures = self._departures
        while departures and departures[0] < now:
            departures.popleft()
        depth = len(departures)
        if self.buffer is not None and depth >= self.buffer:
            stats.dropped += 1
            return None
        if now > self._slot_tick:
            self._slot_tick = now
            self._slot_used = 0
        while self._slot_used >= capacity:
            self._slot_tick += 1
            self._slot_used = 0
        self._slot_used += 1
        depart = self._slot_tick
        departures.append(depart)
        stats.entered += 1
        depth += 1
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        stats.queue_wait_ticks += depart - now
        return depart

    def __repr__(self) -> str:
        shape = "null" if self.capacity is None else (
            f"capacity={self.capacity} buffer={self.buffer}"
        )
        return (
            f"<Link {self.source!r}->{self.target!r} latency={self.latency} {shape} "
            f"entered={self.stats.entered} dropped={self.stats.dropped}>"
        )
