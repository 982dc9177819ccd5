"""Thin asyncio client for :class:`~repro.serving.server.RoutingTableServer`.

Speaks the JSON-lines protocol documented in :mod:`repro.serving.server`.
One client owns one connection; requests are serialised on it (the protocol
is strictly request/response), so share a client only from one task or wrap
calls in your own lock.  Every reply's ``generation`` is remembered in
:attr:`ServingClient.last_generation` so callers can watch fault updates
propagate.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import ServingError
from repro.serialization import decode_node, encode_node

if TYPE_CHECKING:
    import asyncio

Node = Hashable

_MAX_LINE = 16 * 1024 * 1024


class ServingClient:
    """One JSON-lines connection to a routing-table server."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.last_generation: Optional[int] = None

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServingClient":
        import asyncio

        reader, writer = await asyncio.open_connection(
            host, port, limit=_MAX_LINE
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServingClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    async def _call(self, op: str, **fields: Any) -> Any:
        request = {"op": op, **fields}
        self._writer.write(json.dumps(request).encode("utf-8") + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServingError(f"server closed the connection during {op!r}")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServingError(
                f"server rejected {op!r}: {response.get('error')} "
                f"({response.get('kind')})"
            )
        generation = response.get("generation")
        if generation is not None:
            self.last_generation = generation
        return response.get("result")

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    async def ping(self) -> str:
        return await self._call("ping")

    async def info(self) -> Dict[str, Any]:
        info = await self._call("info")
        protocol = info.get("protocol")
        if protocol != 1:
            raise ServingError(
                f"server speaks protocol {protocol!r}; this client speaks 1"
            )
        return info

    async def stats(self) -> Dict[str, Any]:
        return await self._call("stats")

    async def next_hop(self, source: Node, target: Node) -> Optional[Node]:
        result = await self._call(
            "next_hop", source=encode_node(source), target=encode_node(target)
        )
        return None if result is None else decode_node(result)

    async def route(
        self, source: Node, target: Node
    ) -> Optional[Tuple[Node, ...]]:
        result = await self._call(
            "route", source=encode_node(source), target=encode_node(target)
        )
        if result is None:
            return None
        return tuple(decode_node(node) for node in result)

    async def reachable(self, source: Node, target: Node) -> bool:
        return await self._call(
            "reachable", source=encode_node(source), target=encode_node(target)
        )

    async def diameter(self, cap: Optional[float] = None) -> float:
        """Surviving diameter; ``inf`` when disconnected (or above ``cap``)."""
        result = await self._call("diameter", cap=cap)
        return float("inf") if result is None else result

    async def batch_next_hop(
        self, pairs: Sequence[Tuple[Node, Node]]
    ) -> List[Optional[Node]]:
        result = await self._call(
            "batch_next_hop",
            pairs=[
                [encode_node(source), encode_node(target)]
                for source, target in pairs
            ],
        )
        return [
            None if hop is None else decode_node(hop) for hop in result
        ]

    async def faults(self) -> Tuple[Node, ...]:
        result = await self._call("faults")
        return tuple(decode_node(node) for node in result)

    async def fail(self, node: Node) -> int:
        """Mark ``node`` faulty; returns the server's new generation."""
        await self._call("fail", node=encode_node(node))
        return self.last_generation

    async def restore(self, node: Node) -> int:
        """Clear ``node``'s fault; returns the server's new generation."""
        await self._call("restore", node=encode_node(node))
        return self.last_generation
