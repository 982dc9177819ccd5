"""Asyncio front end multiplexing concurrent clients over one serving engine.

The wire protocol is JSON lines: each request is one JSON object terminated
by ``\\n``, each response one JSON object on its own line.  Requests carry an
``op`` plus op-specific fields; node labels travel through
:func:`repro.serialization.encode_node` tagging (so tuple labels survive the
trip).  Every successful response carries the ``generation`` it was answered
at — for query ops that is the generation of the snapshot the whole request
was served from (batch requests grab one :class:`~repro.serving.engine
.EngineView` up front, so a concurrent ``fail`` never tears a batch).

Ops: ``ping``, ``info``, ``stats``, ``next_hop``, ``route``, ``reachable``,
``diameter``, ``batch_next_hop``, ``fail``, ``restore``, ``faults``.
Errors come back as ``{"ok": false, "error": ..., "kind": ...}`` and keep
the connection open; malformed JSON closes it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.exceptions import ReproError, ServingError
from repro.serialization import decode_node, encode_node
from repro.serving.engine import ServingEngine

if TYPE_CHECKING:
    import asyncio

#: Protocol revision, reported by ``info`` and checked by the thin client.
PROTOCOL_VERSION = 1

_MAX_LINE = 16 * 1024 * 1024


class RoutingTableServer:
    """Serve one :class:`ServingEngine` to many concurrent clients."""

    def __init__(
        self,
        engine: ServingEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.engine = engine
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        import asyncio

        self._server = await asyncio.start_server(
            self._handle, self._host, self._port, limit=_MAX_LINE
        )

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves port 0 to the real port."""
        if self._server is None:
            raise ServingError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        import asyncio

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except ValueError:
                    break  # not speaking the protocol; drop the connection
                response = self._dispatch(request)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # peer vanished or server shut down mid-close

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, request: Any) -> Dict[str, Any]:
        if not isinstance(request, dict):
            return _error("request must be a JSON object")
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            response = _error(f"unknown op {op!r}", request)
        else:
            try:
                response = handler(request)
            except ReproError as exc:
                response = _error(str(exc), request, kind=type(exc).__name__)
            except (KeyError, TypeError, ValueError) as exc:
                response = _error(
                    f"bad request: {exc}", request, kind="bad-request"
                )
        if "id" in request:
            response["id"] = request["id"]
        return response

    # -- read ops -------------------------------------------------------
    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return _ok(request, "pong", self.engine.generation)

    def _op_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        artifact = self.engine.artifact
        return _ok(
            request,
            {
                "protocol": PROTOCOL_VERSION,
                "fingerprint": artifact.fingerprint,
                "n": artifact.n,
                "multi": artifact.multi,
                "scheme": artifact.scheme,
                "routing_name": artifact.routing_name,
                "backend": self.engine.index.eval_backend,
            },
            self.engine.generation,
        )

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return _ok(request, self.engine.stats(), self.engine.generation)

    def _op_next_hop(self, request: Dict[str, Any]) -> Dict[str, Any]:
        view = self.engine.view()
        self.engine.note_queries(1)
        hop = view.next_hop(
            decode_node(request["source"]), decode_node(request["target"])
        )
        return _ok(
            request, None if hop is None else encode_node(hop), view.generation
        )

    def _op_route(self, request: Dict[str, Any]) -> Dict[str, Any]:
        view = self.engine.view()
        self.engine.note_queries(1)
        path = view.route(
            decode_node(request["source"]), decode_node(request["target"])
        )
        result = None if path is None else [encode_node(node) for node in path]
        return _ok(request, result, view.generation)

    def _op_reachable(self, request: Dict[str, Any]) -> Dict[str, Any]:
        view = self.engine.view()
        self.engine.note_queries(1)
        value = view.reachable(
            decode_node(request["source"]), decode_node(request["target"])
        )
        return _ok(request, value, view.generation)

    def _op_diameter(self, request: Dict[str, Any]) -> Dict[str, Any]:
        view = self.engine.view()
        self.engine.note_queries(1)
        cap = request.get("cap")
        value = view.surviving_diameter(cap=cap)
        # JSON has no Infinity; null means disconnected / above the cap.
        result = None if value == float("inf") else value
        return _ok(request, result, view.generation)

    def _op_batch_next_hop(self, request: Dict[str, Any]) -> Dict[str, Any]:
        view = self.engine.view()  # one snapshot for the whole batch
        pairs = [
            (decode_node(source), decode_node(target))
            for source, target in request["pairs"]
        ]
        self.engine.note_queries(len(pairs), batched=True)
        hops = view.batch_next_hop(pairs)
        result = [
            None if hop is None else encode_node(hop) for hop in hops
        ]
        return _ok(request, result, view.generation)

    def _op_faults(self, request: Dict[str, Any]) -> Dict[str, Any]:
        view = self.engine.view()
        return _ok(
            request,
            [encode_node(node) for node in view.faults],
            view.generation,
        )

    # -- write ops ------------------------------------------------------
    def _op_fail(self, request: Dict[str, Any]) -> Dict[str, Any]:
        generation = self.engine.fail(decode_node(request["node"]))
        return _ok(request, True, generation)

    def _op_restore(self, request: Dict[str, Any]) -> Dict[str, Any]:
        generation = self.engine.restore(decode_node(request["node"]))
        return _ok(request, True, generation)


def _ok(request: Dict[str, Any], result: Any, generation: int) -> Dict[str, Any]:
    return {"ok": True, "result": result, "generation": generation}


def _error(
    message: str, request: Optional[Dict[str, Any]] = None, kind: str = "error"
) -> Dict[str, Any]:
    return {"ok": False, "error": message, "kind": kind}
