"""Property suites pinning the event engine to the legacy cost model.

Two equivalences, both over randomly sampled graphs, fault sets and
workloads:

1. **Null-model receipts match the legacy simulator.**  A reference
   implementation of the pre-refactor delivery model (BFS plan over the
   surviving route graph, one surviving path per segment, serial endpoint
   costs) predicts every receipt the event engine emits under the null
   link model — delivered flag, routes used, hop count, failure reason,
   and the exact serial latency
   ``hops * hop_ticks + 2 * segments * service_ticks``.

2. **Null links match unbounded capacity-limited links.**  Every delivery
   crosses its route one hop event at a time, whatever the link model.  A
   link with effectively infinite capacity must produce the very same
   receipts (including mid-flight deaths under timed fault schedules) as
   a null link: a capacity that never binds may change no outcome.
"""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_routing
from repro.core.surviving import surviving_route_graph
from repro.exceptions import DeliveryError
from repro.graphs import generators
from repro.graphs.traversal import bfs_tree
from repro.network import (
    FaultEvent,
    LinkSpec,
    NetworkSimulator,
    NullService,
    Workload,
    XorEncryptionService,
)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Effectively infinite capacity: forces the per-hop machinery without
#: introducing any queueing delay, so receipts must equal the null model's.
_HUGE = 10 ** 9


def _reference_receipt(graph, routing, failed, origin, destination):
    """Predict the legacy receipt fields for one delivery (static faults).

    Returns ``(delivered, routes_used, hops, failure_reason)`` exactly as
    the pre-refactor simulator would have reported them.  With a static
    fault set every chosen path avoids failed nodes, so the only failure
    modes are planning failures.
    """
    surviving = surviving_route_graph(graph, routing, failed)
    if not surviving.has_node(origin):
        return (False, 0, 0, f"origin {origin!r} is failed or unknown")
    if not surviving.has_node(destination):
        return (False, 0, 0, f"destination {destination!r} is failed or unknown")
    if origin == destination:
        return (True, 0, 0, "")
    parents = bfs_tree(surviving, origin)
    if destination not in parents:
        return (
            False,
            0,
            0,
            f"no sequence of surviving routes connects {origin!r} to {destination!r}",
        )
    chain = [destination]
    while chain[-1] != origin:
        chain.append(parents[chain[-1]])
    chain.reverse()
    failed_set = set(failed)
    hops = 0
    segments = 0
    get_routes = getattr(routing, "get_routes", None)
    for source, target in zip(chain, chain[1:]):
        if get_routes is not None:
            path = None
            for candidate in get_routes(source, target):
                if not any(node in failed_set for node in candidate):
                    path = candidate
                    break
            if path is None:
                return (
                    False,
                    segments,
                    hops,
                    f"all parallel routes {source!r}->{target!r} are faulty",
                )
        else:
            path = routing.get_route(source, target)
            if path is None or any(node in failed_set for node in path):
                return (
                    False,
                    segments,
                    hops,
                    f"route {source!r}->{target!r} is missing or faulty",
                )
        segments += 1
        hops += len(path) - 1
    return (True, segments, hops, "")


@st.composite
def network_with_faults(draw):
    """A circulant network, a kernel routing, and a static fault set."""
    n = draw(st.integers(min_value=10, max_value=20))
    graph = generators.circulant_graph(n, [1, 2])
    result = build_routing(graph, strategy="kernel")
    fault_count = draw(st.integers(min_value=0, max_value=3))
    faults = draw(
        st.lists(
            st.sampled_from(graph.nodes()),
            min_size=fault_count,
            max_size=fault_count,
            unique=True,
        )
    )
    return graph, result.routing, faults


class TestNullModelReproducesLegacyReceipts:
    @SETTINGS
    @given(data=network_with_faults(), seed=st.integers(0, 1000))
    def test_receipts_match_reference(self, data, seed):
        graph, routing, faults = data
        simulator = NetworkSimulator(graph, routing, service=XorEncryptionService())
        simulator.fail_nodes(faults)
        workload = Workload(kind="uniform", messages=25, duration=10)
        for _tick, origin, destination in workload.injections(graph.nodes(), seed):
            receipt = simulator.send(origin, destination, "payload")
            expected = _reference_receipt(graph, routing, faults, origin, destination)
            assert (
                receipt.delivered,
                receipt.routes_used,
                receipt.hops,
                receipt.failure_reason,
            ) == expected

    @SETTINGS
    @given(
        data=network_with_faults(),
        seed=st.integers(0, 1000),
        use_service=st.booleans(),
    )
    def test_serial_latency_formula(self, data, seed, use_service):
        # The satellite property: under the null link model every delivered
        # message costs exactly hops * hop_ticks + 2 * segments * service
        # ticks — segments run strictly one after another.
        graph, routing, faults = data
        service = XorEncryptionService() if use_service else NullService()
        simulator = NetworkSimulator(
            graph, routing, service=service, hop_latency=0.05
        )
        simulator.fail_nodes(faults)
        workload = Workload(kind="uniform", messages=25, duration=10)
        for _tick, origin, destination in workload.injections(graph.nodes(), seed):
            receipt = simulator.send(origin, destination, "payload")
            if not receipt.delivered:
                continue
            assert receipt.latency_ticks == (
                receipt.hops * simulator.hop_ticks
                + 2 * receipt.routes_used * simulator.service_ticks
            )
            assert receipt.latency == receipt.latency_ticks / simulator.resolution


@st.composite
def timed_fault_schedule(draw, n):
    """Up to four fail/repair actions over the first 40 ticks."""
    count = draw(st.integers(min_value=0, max_value=4))
    events = []
    for _ in range(count):
        tick = draw(st.integers(min_value=0, max_value=40))
        action = draw(st.sampled_from(["fail", "repair"]))
        node = draw(st.integers(min_value=0, max_value=n - 1))
        events.append(FaultEvent(tick, action, node))
    events.sort(key=lambda event: (event.tick, event.action, str(event.node)))
    return events


@st.composite
def traffic_case(draw):
    n = draw(st.integers(min_value=10, max_value=16))
    graph = generators.circulant_graph(n, [1, 2])
    result = build_routing(graph, strategy="kernel")
    faults = draw(timed_fault_schedule(n))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return graph, result.routing, faults, seed


def _run_indexed(graph, routing, faults, seed, link):
    """Run a workload, returning receipts keyed by injection index."""
    simulator = NetworkSimulator(graph, routing, hop_latency=0.1, link=link)
    for fault in faults:
        action = (
            simulator.fail_node if fault.action == "fail" else simulator.repair_node
        )
        simulator.events.schedule(
            fault.tick, lambda act=action, node=fault.node: act(node), kind="fault"
        )
    workload = Workload(kind="uniform", messages=30, duration=30)
    injections = workload.injections(graph.nodes(), seed)
    receipts = [None] * len(injections)
    for index, (tick, origin, destination) in enumerate(injections):
        simulator.inject(
            origin,
            destination,
            index,
            delay=tick,
            on_complete=lambda receipt, index=index: receipts.__setitem__(
                index, receipt
            ),
        )
    simulator.events.run()
    return receipts


class TestNullLinksMatchUnboundedLinks:
    @SETTINGS
    @given(case=traffic_case())
    def test_timed_fault_receipts_identical(self, case):
        graph, routing, faults, seed = case
        coalesced = _run_indexed(graph, routing, faults, seed, link=None)
        per_hop = _run_indexed(
            graph, routing, faults, seed, link=LinkSpec(capacity=_HUGE)
        )
        assert len(coalesced) == len(per_hop)
        # The global message-id counter differs between the two runs, so
        # mask it out of the failure reasons before comparing.
        anonymise = lambda reason: re.sub(r"message \d+", "message *", reason)
        for fast, slow in zip(coalesced, per_hop):
            assert fast is not None and slow is not None
            assert (
                fast.delivered,
                fast.routes_used,
                fast.hops,
                anonymise(fast.failure_reason),
                fast.latency_ticks,
            ) == (
                slow.delivered,
                slow.routes_used,
                slow.hops,
                anonymise(slow.failure_reason),
                slow.latency_ticks,
            )
