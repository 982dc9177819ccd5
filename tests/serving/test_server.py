"""Integration tests for the asyncio serving front end + thin client."""

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import build_routing
from repro.exceptions import ServingError
from repro.graphs import generators
from repro.serving import (
    RoutingTableServer,
    ServingClient,
    ServingEngine,
    compile_routing_artifact,
)


@pytest.fixture(scope="module")
def artifact():
    graph = generators.circulant_graph(12, [1, 2])
    result = build_routing(graph, strategy="kernel")
    return compile_routing_artifact(graph, result.routing, scheme=result.scheme)


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(artifact, body):
    engine = ServingEngine(artifact)
    server = RoutingTableServer(engine)
    await server.start()
    host, port = server.address
    try:
        client = await ServingClient.connect(host, port)
        async with client:
            return await body(client, engine)
    finally:
        await server.stop()


class TestProtocol:
    def test_ping_info_stats(self, artifact):
        async def body(client, engine):
            assert await client.ping() == "pong"
            info = await client.info()
            assert info["fingerprint"] == artifact.fingerprint
            assert info["n"] == artifact.n
            stats = await client.stats()
            assert stats["generation"] == 0
            assert stats["successor_memo_size"] == 0
            assert stats["successor_memo_misses"] == 0
            assert stats["batch_tables"] == 0
            return True

        assert run(_with_server(artifact, body))

    def test_query_ops_round_trip(self, artifact):
        async def body(client, engine):
            view = engine.view()
            nodes = artifact.nodes
            assert await client.next_hop(nodes[0], nodes[3]) == view.next_hop(
                nodes[0], nodes[3]
            )
            served = await client.route(nodes[0], nodes[3])
            assert served == view.route(nodes[0], nodes[3])
            assert await client.reachable(nodes[0], nodes[3]) == view.reachable(
                nodes[0], nodes[3]
            )
            assert await client.diameter() == view.surviving_diameter()
            pairs = [(nodes[0], nodes[3]), (nodes[2], nodes[7])]
            assert await client.batch_next_hop(pairs) == view.batch_next_hop(
                pairs
            )
            return True

        assert run(_with_server(artifact, body))

    def test_fault_updates_bump_generation(self, artifact):
        async def body(client, engine):
            victim = artifact.nodes[4]
            generation = await client.fail(victim)
            assert generation == 1
            assert victim in await client.faults()
            assert await client.next_hop(victim, artifact.nodes[0]) is None
            generation = await client.restore(victim)
            assert generation == 2
            assert await client.faults() == ()
            return True

        assert run(_with_server(artifact, body))

    def test_disconnected_diameter_is_infinite(self, artifact):
        async def body(client, engine):
            # Fail enough nodes to disconnect the surviving route graph.
            for node in artifact.nodes[1:5]:
                await client.fail(node)
            value = await client.diameter()
            assert value == float("inf") or value > 0
            return True

        assert run(_with_server(artifact, body))

    def test_errors_keep_the_connection_open(self, artifact):
        async def body(client, engine):
            with pytest.raises(ServingError, match="FaultModelError"):
                await client.next_hop("nope", artifact.nodes[0])
            # The connection survives the rejected request.
            assert await client.ping() == "pong"
            with pytest.raises(ServingError, match="unknown op"):
                await client._call("explode")
            assert await client.ping() == "pong"
            return True

        assert run(_with_server(artifact, body))

    def test_concurrent_clients(self, artifact):
        async def scenario():
            engine = ServingEngine(artifact)
            server = RoutingTableServer(engine)
            await server.start()
            host, port = server.address
            clients = [
                await ServingClient.connect(host, port) for _ in range(4)
            ]
            try:
                nodes = artifact.nodes
                results = await asyncio.gather(
                    *(
                        c.batch_next_hop(
                            [(nodes[i], nodes[(i + 3) % len(nodes)])]
                        )
                        for i, c in enumerate(clients)
                    )
                )
                assert len(results) == 4
                view = engine.view()
                for i, result in enumerate(results):
                    assert result == view.batch_next_hop(
                        [(nodes[i], nodes[(i + 3) % len(nodes)])]
                    )
            finally:
                for c in clients:
                    await c.close()
                await server.stop()
            return True

        assert run(scenario())

    def test_raw_protocol_request_id_echo(self, artifact):
        async def scenario():
            engine = ServingEngine(artifact)
            server = RoutingTableServer(engine)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"op": "ping", "id": 42}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response == {
                    "ok": True,
                    "result": "pong",
                    "generation": 0,
                    "id": 42,
                }
                # Unknown op reports an error but answers.
                writer.write(b'{"op": "nope", "id": 7}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["id"] == 7
            finally:
                writer.close()
                await writer.wait_closed()
            await server.stop()
            return True

        assert run(scenario())

    def test_address_requires_started_server(self, artifact):
        server = RoutingTableServer(ServingEngine(artifact))
        with pytest.raises(ServingError):
            server.address


def test_importing_the_library_leaves_asyncio_unloaded():
    """Only serving over a socket loads asyncio (and ssl, socket, selectors...).

    The server, the client and ``repro serve`` import it where they use it,
    so a fresh interpreter importing the library, the serving package and
    the CLI leaves it out.
    """
    code = (
        "import sys\n"
        "import repro, repro.serving, repro.cli\n"
        "print('asyncio' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
