"""Unit tests for the fixed-route network simulator."""

import pytest

from repro.core import circular_routing, full_multirouting, kernel_routing, surviving_distance
from repro.exceptions import DeliveryError, SimulationError
from repro.graphs import generators
from repro.network import ChecksumService, NetworkSimulator, XorEncryptionService


@pytest.fixture(scope="module")
def cycle_simulator_factory():
    graph = generators.cycle_graph(12)
    result = circular_routing(graph)

    def factory(**kwargs):
        return NetworkSimulator(graph, result.routing, **kwargs), graph, result

    return factory


class TestFaultManagement:
    def test_fail_and_repair(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        simulator.fail_node(3)
        assert simulator.failed_nodes() == [3]
        simulator.repair_node(3)
        assert simulator.failed_nodes() == []

    def test_fail_many(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        simulator.fail_nodes([1, 5])
        assert sorted(simulator.failed_nodes()) == [1, 5]

    def test_unknown_node_rejected(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        with pytest.raises(SimulationError):
            simulator.fail_node("ghost")
        with pytest.raises(SimulationError):
            simulator.repair_node("ghost")

    def test_surviving_graph_cache_invalidation(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        before = simulator.surviving_graph().number_of_nodes()
        simulator.fail_node(0)
        after = simulator.surviving_graph().number_of_nodes()
        assert after == before - 1


class TestDelivery:
    def test_fault_free_delivery(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        receipt = simulator.send(0, 6, "hello")
        assert receipt.delivered
        assert receipt.routes_used >= 1
        assert receipt.hops >= receipt.routes_used
        assert simulator.nodes[6].application_inbox == ["hello"]
        # The trace records every node the message reached, one per hop.
        trace = receipt.message.trace
        assert (trace[0], trace[-1]) == (0, 6)
        assert len(trace) == receipt.hops + 1
        assert receipt.message.hop_index == len(receipt.message.route) - 1

    def test_routes_used_matches_surviving_distance(self, cycle_simulator_factory):
        simulator, graph, result = cycle_simulator_factory()
        simulator.fail_node(3)
        receipt = simulator.send(0, 6, "payload")
        assert receipt.delivered
        assert receipt.routes_used == surviving_distance(graph, result.routing, {3}, 0, 6)

    def test_delivery_with_endpoint_services(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory(service=XorEncryptionService())
        receipt = simulator.send(2, 9, "classified")
        assert receipt.delivered
        assert simulator.nodes[9].application_inbox == ["classified"]
        assert receipt.latency > 0

    def test_checksum_service(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory(service=ChecksumService())
        receipt = simulator.send(1, 7, "verified")
        assert receipt.delivered
        assert simulator.nodes[7].application_inbox == ["verified"]

    def test_delivery_to_failed_destination_fails(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        simulator.fail_node(6)
        receipt = simulator.send(0, 6, "lost")
        assert not receipt.delivered
        assert "failed" in receipt.failure_reason

    def test_delivery_from_failed_origin_fails(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        simulator.fail_node(0)
        receipt = simulator.send(0, 6, "lost")
        assert not receipt.delivered

    def test_statistics_accumulate(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        simulator.send(0, 5, "a")
        simulator.send(1, 8, "b")
        assert simulator.stats.messages_sent == 2
        assert simulator.stats.messages_delivered == 2
        assert simulator.stats.delivery_ratio() == 1.0
        assert simulator.stats.total_hops > 0

    def test_describe(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        simulator.send(0, 5, "a")
        assert "delivered" in simulator.describe()


class TestPlanning:
    def test_plan_is_empty_for_self_delivery(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        assert simulator.plan_route_sequence(4, 4) == []

    def test_plan_uses_surviving_routes_only(self, cycle_simulator_factory):
        simulator, graph, result = cycle_simulator_factory()
        simulator.fail_node(3)
        plan = simulator.plan_route_sequence(0, 6)
        failed = set(simulator.failed_nodes())
        for source, target in plan:
            path = result.routing.get_route(source, target)
            assert path is not None
            assert not (set(path) & failed)

    def test_plan_unreachable_raises(self):
        # Edge-only routing on a cycle: cutting two antipodal nodes splits it.
        graph = generators.cycle_graph(8)
        from repro.core import Routing

        routing = Routing(graph)
        routing.add_all_edge_routes()
        simulator = NetworkSimulator(graph, routing)
        simulator.fail_nodes([0, 4])
        with pytest.raises(DeliveryError):
            simulator.plan_route_sequence(2, 6)
        receipt = simulator.send(2, 6, "nope")
        assert not receipt.delivered

    def test_plan_unknown_origin(self, cycle_simulator_factory):
        simulator, _graph, _result = cycle_simulator_factory()
        with pytest.raises(DeliveryError):
            simulator.plan_route_sequence("ghost", 3)


class TestMultiroutingDelivery:
    def test_multirouting_single_segment(self):
        graph = generators.circulant_graph(8, [1, 2])
        result = full_multirouting(graph)
        simulator = NetworkSimulator(graph, result.routing)
        simulator.fail_node(1)
        receipt = simulator.send(0, 4, "direct")
        assert receipt.delivered
        assert receipt.routes_used == 1  # diameter-1 guarantee

    def test_kernel_routing_delivery_under_faults(self):
        graph = generators.circulant_graph(10, [1, 2])
        result = kernel_routing(graph)
        simulator = NetworkSimulator(graph, result.routing)
        simulator.fail_node(result.concentrator[0])
        receipt = simulator.send(0, 5, "resilient")
        assert receipt.delivered
        assert receipt.routes_used <= 2 * result.t
