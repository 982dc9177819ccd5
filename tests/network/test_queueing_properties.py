"""Property suite for the link model.

Random small circulants with kernel routings, the null link model or link
capacity 1-3 with a bounded or unbounded buffer, the endpoint service on
or off, random workloads and timed fail/repair schedules.  Four invariants
must hold on every run:

1. every receipt that failed with ``buffer full`` is one link drop, and
   every link drop is such a receipt;
2. no link queue ever grows past its buffer;
3. queueing only adds delay: a delivered message takes at least its serial
   cost ``hops * hop_ticks + 2 * routes_used * service_ticks``;
4. the engine's clock ends at the run's last real event: the latest
   receipt's ``finished_tick`` or scheduled fault tick, whichever is later.

A fifth property pins one :class:`~repro.network.links.Link` alone to a
reference FIFO that keeps every pending departure tick in a deque.
"""

import collections
import functools
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_routing
from repro.graphs import generators
from repro.network import (
    FaultEvent,
    Link,
    LinkSpec,
    LinkStats,
    NetworkSimulator,
    Workload,
    XorEncryptionService,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=None)
def _routing(n, offsets):
    graph = generators.circulant_graph(n, list(offsets))
    return graph, build_routing(graph, strategy="kernel").routing


@st.composite
def queueing_case(draw):
    n = draw(st.integers(min_value=8, max_value=16))
    offsets = draw(st.sampled_from([(1, 2), (1, 3), (1, 2, 3)]))
    graph, routing = _routing(n, offsets)
    capacity = draw(st.sampled_from([None, 1, 2, 3]))
    if capacity is None:
        link = LinkSpec()
    else:
        link = LinkSpec(
            capacity=capacity,
            buffer=draw(st.none() | st.integers(min_value=0, max_value=8)),
        )
    faults = draw(
        st.lists(
            st.builds(
                FaultEvent,
                tick=st.integers(min_value=0, max_value=60),
                action=st.sampled_from(["fail", "repair"]),
                node=st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=4,
        )
    )
    workload = Workload(
        kind=draw(st.sampled_from(["uniform", "hotspot"])),
        messages=draw(st.integers(min_value=5, max_value=80)),
        duration=draw(st.integers(min_value=1, max_value=40)),
    )
    service = XorEncryptionService() if draw(st.booleans()) else None
    seed = draw(st.integers(min_value=0, max_value=1000))
    return graph, routing, link, faults, workload, service, seed


def _run(graph, routing, link, faults, workload, service, seed):
    simulator = NetworkSimulator(graph, routing, service=service, link=link)
    for fault in faults:
        action = (
            simulator.fail_node if fault.action == "fail" else simulator.repair_node
        )
        simulator.events.schedule(
            fault.tick, lambda act=action, node=fault.node: act(node), kind="fault"
        )
    receipts = []
    injections = workload.injections(graph.nodes(), seed)
    for tick, origin, destination in injections:
        simulator.inject(
            origin, destination, len(receipts), delay=tick, on_complete=receipts.append
        )
    simulator.events.run()
    assert len(receipts) == len(injections)
    return simulator, receipts


class TestQueueingModel:
    @SETTINGS
    @given(case=queueing_case())
    def test_buffer_drops_match_link_counters(self, case):
        simulator, receipts = _run(*case)
        dropped = [r for r in receipts if r.failure_reason.endswith("(buffer full)")]
        assert len(dropped) == simulator.dropped_at_links()

    @SETTINGS
    @given(case=queueing_case())
    def test_queues_never_outgrow_their_buffer(self, case):
        simulator, _receipts = _run(*case)
        buffer = simulator.link_spec.buffer
        if buffer is not None:
            assert simulator.max_queue_depth() <= buffer

    @SETTINGS
    @given(case=queueing_case())
    def test_delivered_latency_covers_the_serial_cost(self, case):
        simulator, receipts = _run(*case)
        for receipt in receipts:
            if receipt.delivered:
                assert receipt.latency_ticks >= (
                    receipt.hops * simulator.hop_ticks
                    + 2 * receipt.routes_used * simulator.service_ticks
                )

    @SETTINGS
    @given(case=queueing_case())
    def test_clock_ends_at_the_last_receipt_or_fault(self, case):
        simulator, receipts = _run(*case)
        faults = case[3]
        last = max(
            [receipt.message.finished_tick for receipt in receipts]
            + [fault.tick for fault in faults]
        )
        assert simulator.events.now == last


class _DequeLink:
    """Reference FIFO link: a deque of every departure tick not yet passed.

    An arrival departs at ``now`` when nothing is queued; otherwise behind
    the last queued departure, on its tick while that tick has room for
    ``capacity`` departures, or on the next one.
    """

    def __init__(self, capacity, buffer):
        self.capacity = capacity
        self.buffer = buffer
        self.departures = collections.deque()
        self.stats = LinkStats()

    def queue_depth(self, now):
        while self.departures and self.departures[0] < now:
            self.departures.popleft()
        return len(self.departures)

    def reserve(self, now):
        stats = self.stats
        if self.capacity is None:
            stats.entered += 1
            return now
        depth = self.queue_depth(now)
        if self.buffer is not None and depth >= self.buffer:
            stats.dropped += 1
            return None
        depart = now
        if self.departures:
            depart = self.departures[-1]
            if self.departures.count(depart) >= self.capacity:
                depart += 1
        self.departures.append(depart)
        stats.entered += 1
        stats.max_queue_depth = max(stats.max_queue_depth, depth + 1)
        stats.queue_wait_ticks += depart - now
        return depart


@st.composite
def link_case(draw):
    capacity = draw(st.sampled_from([None, 1, 2, 3]))
    buffer = None
    if capacity is not None:
        buffer = draw(st.none() | st.integers(min_value=0, max_value=5))
    gaps = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=40))
    return capacity, buffer, list(itertools.accumulate(gaps))


class TestLinkAgainstDequeModel:
    @SETTINGS
    @given(case=link_case())
    def test_reservations_depths_and_stats_match(self, case):
        capacity, buffer, arrivals = case
        link = Link("a", "b", latency=1, capacity=capacity, buffer=buffer)
        model = _DequeLink(capacity, buffer)
        for now in arrivals:
            assert link.queue_depth(now) == model.queue_depth(now)
            assert link.reserve(now) == model.reserve(now)
            assert link.queue_depth(now) == model.queue_depth(now)
        later = (arrivals[-1] if arrivals else 0) + 2
        assert link.queue_depth(later) == model.queue_depth(later)
        assert link.stats == model.stats
