"""Unit tests for the message / delivery-receipt model."""

import pytest

from repro.core import Routing
from repro.graphs import generators
from repro.network import DeliveryReceipt, Message, NetworkSimulator


def line_simulator(*routes):
    """A simulator on the path 0-1-2-3 whose routing holds exactly ``routes``."""
    graph = generators.path_graph(4)
    routing = Routing(graph)
    for path in routes:
        routing.set_route(path[0], path[-1], path)
    return NetworkSimulator(graph, routing)


class TestMessage:
    def test_initial_state(self):
        message = Message(origin="a", final_destination="z", payload="data")
        assert message.route_counter == 0
        assert message.route == ()
        assert message.hop_index == 0
        assert message.trace == []

    def test_unique_ids(self):
        first = Message(origin=1, final_destination=2, payload=None)
        second = Message(origin=1, final_destination=2, payload=None)
        assert first.message_id != second.message_id

    def test_attach_route_increments_counter(self):
        message = Message(origin="a", final_destination="c", payload=None)
        message.attach_route(["a", "b", "c"])
        assert message.route_counter == 1
        assert message.source == "a"
        assert message.destination == "c"
        assert message.route == ("a", "b", "c")
        message.hop_index = 2
        message.attach_route(["c", "d"])
        assert message.route_counter == 2
        assert (message.source, message.destination) == ("c", "d")
        assert message.hop_index == 0

    def test_advance_along_route(self):
        simulator = line_simulator((0, 1, 2, 3))
        message = simulator.inject(0, 3, None)
        steps = []
        while simulator.events.step():
            steps.append((message.hop_index, message.trace[-1]))
        assert message.route == (0, 1, 2, 3)
        # The pointer moves one position per hop and names the node reached.
        positions = [index for index, _node in steps]
        assert positions == sorted(positions)
        assert list(dict.fromkeys(positions)) == [0, 1, 2, 3]
        assert all(message.route[index] == node for index, node in steps)

    def test_trace_records_visits(self):
        # No 0-3 route: the delivery takes 0-1-2, then 2-3.
        simulator = line_simulator((0, 1, 2), (2, 3))
        receipt = simulator.send(0, 3, None)
        message = receipt.message
        assert message.route_counter == 2
        # The trace spans both segments and holds their joint once.
        assert message.trace == [0, 1, 2, 3]
        assert receipt.hops == len(message.trace) - 1

    def test_repr(self):
        message = Message(origin="a", final_destination="b", payload=None)
        assert "a" in repr(message)

    def test_holds_only_its_fields(self):
        message = Message(origin="a", final_destination="b", payload=None)
        assert not hasattr(message, "__dict__")
        with pytest.raises(AttributeError):
            message.hops = 3


class TestDeliveryReceipt:
    def test_delivered_repr(self):
        message = Message(origin=0, final_destination=1, payload=None)
        receipt = DeliveryReceipt(message=message, delivered=True, routes_used=2, hops=5, latency=1.5)
        assert "delivered" in repr(receipt)
        assert "routes=2" in repr(receipt)

    def test_failed_repr(self):
        message = Message(origin=0, final_destination=1, payload=None)
        receipt = DeliveryReceipt(
            message=message,
            delivered=False,
            routes_used=0,
            hops=0,
            latency=0.0,
            failure_reason="unreachable",
        )
        assert "FAILED" in repr(receipt)
        assert "unreachable" in repr(receipt)
