"""Unit tests for the message / delivery-receipt model."""

import pytest

from repro.network import DeliveryReceipt, Message


class TestMessage:
    def test_initial_state(self):
        message = Message(origin="a", final_destination="z", payload="data")
        assert message.current_node == "a"
        assert message.route_counter == 0
        assert message.next_node is None
        assert not message.at_segment_end

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
        assert message.current_node == "a"
        message.attach_route(["c", "d"])
        assert message.route_counter == 2

    def test_advance_along_route(self):
        message = Message(origin="a", final_destination="c", payload=None)
        message.attach_route(["a", "b", "c"])
        assert message.advance() == "b"
        assert message.current_node == "b"
        assert not message.at_segment_end
        assert message.advance() == "c"
        assert message.at_segment_end
        assert message.next_node is None

    def test_advance_past_end_rejected(self):
        message = Message(origin="a", final_destination="b", payload=None)
        message.attach_route(["a", "b"])
        message.advance()
        with pytest.raises(ValueError):
            message.advance()

    def test_trace_records_visits(self):
        message = Message(origin="a", final_destination="c", payload=None)
        message.trace.append("a")
        message.attach_route(["a", "b", "c"])
        message.advance()
        message.advance()
        assert message.trace == ["a", "b", "c"]

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
