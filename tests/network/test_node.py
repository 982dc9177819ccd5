"""Unit tests for the NetworkNode state."""

import pytest

from repro.core import Routing
from repro.exceptions import SimulationError
from repro.graphs import generators
from repro.network import Message, NetworkNode, NetworkSimulator


def make_message(route):
    message = Message(origin=route[0], final_destination=route[-1], payload="x")
    message.attach_route(route)
    return message


def line_simulator(*routes):
    """A simulator on the path 0-1-2-3 whose routing holds exactly ``routes``."""
    graph = generators.path_graph(4)
    routing = Routing(graph)
    for path in routes:
        routing.set_route(path[0], path[-1], path)
    return NetworkSimulator(graph, routing)


class TestForwarding:
    """Nodes forward hop by hop along the route the message carries."""

    def test_forward_returns_next_hop(self):
        simulator = line_simulator((0, 1, 2, 3))
        receipt = simulator.send(0, 3, "x")
        assert receipt.delivered
        assert receipt.message.trace == [0, 1, 2, 3]
        forwarded = [simulator.nodes[node].stats.forwarded for node in range(4)]
        assert forwarded == [1, 1, 1, 0]

    def test_forward_at_segment_end_returns_none(self):
        # No 0-3 route: the delivery takes 0-1-2, then 2-3.
        simulator = line_simulator((0, 1, 2), (2, 3))
        receipt = simulator.send(0, 3, "x")
        assert receipt.delivered
        assert receipt.routes_used == 2
        # Node 2 receives the first segment, then sends the second one.
        joint = simulator.nodes[2].stats
        assert (joint.received, joint.forwarded) == (1, 1)
        end = simulator.nodes[3].stats
        assert (end.received, end.forwarded) == (1, 0)
        assert simulator.nodes[1].stats.received == 0

    def test_failed_node_drops(self):
        simulator = line_simulator((0, 1, 2, 3))
        receipts = []
        message = simulator.inject(0, 3, "x", on_complete=receipts.append)
        simulator.events.step()  # the delivery starts and attaches its route
        simulator.fail_node(0)  # the source fails before it sends
        simulator.events.run()
        [receipt] = receipts
        assert not receipt.delivered
        assert "dropped" in receipt.failure_reason
        source = simulator.nodes[0].stats
        assert (source.dropped, source.forwarded) == (1, 0)
        assert message.trace == [0]

    def test_can_forward_reflects_liveness(self):
        simulator = line_simulator((0, 1, 2, 3))
        assert simulator.send(0, 3, "x").delivered
        simulator.fail_node(1)
        assert not simulator.send(0, 3, "x").delivered
        assert simulator.nodes[1].stats.forwarded == 1
        simulator.repair_node(1)
        assert simulator.send(0, 3, "x").delivered
        assert simulator.nodes[1].stats.forwarded == 2


class TestLiveness:
    def test_fail_and_repair_toggle_liveness(self):
        node = NetworkNode("a")
        assert node.alive
        node.fail()
        assert not node.alive
        node.repair()
        assert node.alive


class TestDelivery:
    def test_deliver_to_application(self):
        node = NetworkNode("b")
        message = make_message(["a", "b"])
        node.deliver(message, "payload")
        assert node.application_inbox == ["payload"]
        assert node.delivered == [message]

    def test_failed_node_cannot_deliver(self):
        node = NetworkNode("b")
        node.fail()
        with pytest.raises(SimulationError):
            node.deliver(make_message(["a", "b"]), "payload")
        assert node.stats.dropped == 1
        assert node.application_inbox == []

    def test_repr_shows_status(self):
        node = NetworkNode("b")
        assert "up" in repr(node)
        node.fail()
        assert "FAILED" in repr(node)
