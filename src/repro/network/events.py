"""A slotted integer-tick discrete-event engine for the network simulator.

The simulator in :mod:`repro.network.simulator` runs every delivery as a
process on this engine, and fault actions as plain timestamped events.
Time is an **integer tick** (the simulator quantises float latencies
through its ``resolution``), which buys the engine three structural wins
over the old float-keyed binary heap:

* events landing on the same tick live in one **slot** (a plain list), so
  dispatch pops each distinct tick from a small heap once and then walks
  the slot in insertion order — far fewer heap operations per event when
  traffic bunches up, which is exactly what congestion does;
* ``len(queue)`` is a maintained **live-event counter**, not a heap scan;
* :meth:`cancel` flips a flag and decrements the counter — cancelled
  events are skipped (and never counted) at dispatch, with no heap
  surgery and no O(n) sweeps.

A **process** (:meth:`EventQueue.process`) is a generator driven on one
event: each ``yield d`` re-arms that event ``d`` ticks on, under the next
sequence number, exactly where a freshly scheduled event would land, so a
process allocates nothing per step and never has two pending events.  Its
generator is built only when the event first fires, so a pending process
holds its start callable, which is smaller than a generator frame.

Determinism is unchanged from the old engine: events on one tick fire in
scheduling order, and an event scheduled (or a process re-armed) with zero
delay from inside a firing joins the *currently dispatching* tick batch
(cascades complete within their tick).
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Callable, Dict, Generator, List, Optional

from repro.exceptions import SimulationError

EventCallback = Callable[[], None]
#: A process body: yields the delay in ticks to its next step.
ProcessGenerator = Generator[int, None, None]


@dataclasses.dataclass(slots=True)
class Event:
    """One scheduled step: fires at ``tick``, ties broken by ``seq``.

    A plain event calls ``callback`` once.  A process event (see
    :meth:`EventQueue.process`) calls ``callback`` on its first firing to
    build its ``generator``, then steps that generator on every firing.
    """

    tick: int
    seq: int
    callback: Optional[Callable[[], object]]
    kind: str = ""
    cancelled: bool = False
    fired: bool = False
    process: bool = False
    generator: Optional[ProcessGenerator] = None

    def __repr__(self) -> str:
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"<Event #{self.seq} {self.kind or 'event'}@{self.tick} {state}>"


class EventQueue:
    """A deterministic slotted discrete-event queue over integer ticks.

    Events scheduled for the same tick fire in scheduling order.  The queue
    keeps the current simulation tick; delays must be non-negative integers
    (scheduling into the past, or with a float delay, raises
    :class:`~repro.exceptions.SimulationError` — callers quantise real
    latencies, see ``NetworkSimulator.resolution``).
    """

    __slots__ = (
        "_slots",
        "_ticks",
        "_now",
        "_live",
        "_processed",
        "_seq",
        "_batch",
        "_batch_tick",
        "_batch_index",
    )

    def __init__(self) -> None:
        #: tick -> events scheduled for that tick, in scheduling order.
        self._slots: Dict[int, List[Event]] = {}
        #: min-heap of distinct pending ticks (each tick pushed exactly once).
        self._ticks: List[int] = []
        self._now = 0
        self._live = 0
        self._processed = 0
        self._seq = 0
        # The slot currently being dispatched (or parked by an early break
        # in :meth:`run`), consumed through a cursor so ``step`` keeps
        # single-event granularity without re-heapifying the remainder.
        self._batch: Optional[List[Event]] = None
        self._batch_tick = 0
        self._batch_index = 0

    @property
    def now(self) -> int:
        """Return the current simulation tick."""
        return self._now

    @property
    def processed(self) -> int:
        """Return the number of events processed so far."""
        return self._processed

    def __len__(self) -> int:
        """Return the number of live (scheduled, not cancelled) events — O(1)."""
        return self._live

    def schedule(self, delay: int, callback: EventCallback, kind: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` ticks from now.

        Returns the scheduled event, which can be passed to :meth:`cancel`.
        """
        event = Event(0, 0, callback, kind)
        self._push(event, delay)
        return event

    def process(
        self, delay: int, start: Callable[[], ProcessGenerator], kind: str = ""
    ) -> Event:
        """Schedule a process to take its first step ``delay`` ticks from now.

        When the returned event first fires, ``start()`` builds the process's
        generator and the engine advances it.  Each ``yield d`` re-arms the
        same event ``d`` ticks on, under the next sequence number, exactly
        as ``schedule(d, ...)`` would order a new event; the process ends
        when the generator returns.  A pending process holds no generator,
        and a cancelled one never calls ``start``.
        """
        event = Event(0, 0, start, kind, process=True)
        self._push(event, delay)
        return event

    def _push(self, event: Event, delay: int) -> None:
        """Queue ``event`` ``delay`` ticks from now under the next sequence number.

        The delay is checked first, so a refused one leaves the event untouched.
        """
        if not isinstance(delay, int) or isinstance(delay, bool):
            raise SimulationError(
                f"event delays are integer ticks, got {delay!r}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        tick = self._now + delay
        event.tick = tick
        event.seq = self._seq
        event.fired = False
        self._seq += 1
        batch = self._batch
        if batch is not None and tick == self._batch_tick:
            # The slot for this tick is already out of the heap (it is the
            # one being dispatched, or parked by run(until=)); append so
            # zero-delay cascades fire within the current tick batch.
            batch.append(event)
        else:
            slot = self._slots.get(tick)
            if slot is None:
                self._slots[tick] = [event]
                heapq.heappush(self._ticks, tick)
            else:
                slot.append(event)
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op if it already fired or was cancelled)."""
        if event.fired or event.cancelled:
            return
        event.cancelled = True
        self._live -= 1

    def _advance(self) -> bool:
        """Position the cursor on the next live event; ``False`` when drained.

        Cancelled events are skipped (they were already uncounted by
        :meth:`cancel`).  A parked batch yields to any earlier tick that
        was scheduled while it sat waiting — its remainder is re-shelved,
        preserving in-tick order.
        """
        while True:
            batch = self._batch
            if batch is not None:
                index = self._batch_index
                while index < len(batch) and batch[index].cancelled:
                    index += 1
                if index < len(batch):
                    self._batch_index = index
                    if self._ticks and self._ticks[0] < self._batch_tick:
                        # An earlier tick appeared while this batch was
                        # parked (only possible between run()/step() calls).
                        self._slots[self._batch_tick] = batch[index:]
                        heapq.heappush(self._ticks, self._batch_tick)
                        self._batch = None
                        continue
                    return True
                self._batch = None
            if not self._ticks:
                return False
            tick = heapq.heappop(self._ticks)
            self._batch = self._slots.pop(tick)
            self._batch_tick = tick
            self._batch_index = 0

    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if the queue is empty."""
        return self.run(max_events=1) == 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is passed, or the cap hits.

        ``until`` is inclusive: events scheduled exactly at that tick still
        fire.  Cancelled events never count against ``max_events``.
        Returns the number of events processed by this call.
        """
        processed = 0
        while self._advance():
            if until is not None and self._batch_tick > until:
                break
            batch = self._batch
            # Walk the slot in one loop (events appended by zero-delay
            # callbacks join it); the cursor lives on the queue, so a
            # callback that calls step() leaves it where it should be.
            while self._batch is batch:
                index = self._batch_index
                if index >= len(batch):
                    break
                event = batch[index]
                if event.cancelled:
                    self._batch_index = index + 1
                    continue
                if max_events is not None and processed >= max_events:
                    return processed
                self._batch_index = index + 1
                self._now = event.tick
                event.fired = True
                self._live -= 1
                self._processed += 1
                processed += 1
                generator = event.generator
                if generator is None:
                    if not event.process:
                        event.callback()
                        continue
                    # A process's first firing builds its generator.
                    generator = event.generator = event.callback()
                    event.callback = None
                try:
                    self._push(event, next(generator))
                except StopIteration:
                    event.generator = None
        return processed
