"""In-process RouteServer tests: fan-out, shutdown draining, protocol edges.

Each test boots a real server on an ephemeral localhost port inside its own
``asyncio.run`` loop and talks to it through actual TCP connections — no
daemon subprocess, so the suite stays fast enough for tier 1.
"""

import asyncio
import json
import socket

import pytest

from repro import open_session
from repro.serve import protocol
from repro.serve.client import AsyncRouteClient
from repro.serve.server import RouteServer

_FAMILY = "ring"
_N = 128
_SEED = 11


@pytest.fixture
def session():
    with open_session(_FAMILY, _N, seed=_SEED, scheme="uniform") as s:
        yield s


def _run_with_server(session, scenario, **server_kwargs):
    """Start a server, run ``await scenario(server)``, stop the server."""

    async def runner():
        server = RouteServer(session, port=0, **server_kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


class TestRouteFanOut:
    def test_concurrent_clients_each_get_their_own_answer(self, session):
        async def scenario(server):
            clients = [
                await AsyncRouteClient().connect(server.host, server.port)
                for _ in range(4)
            ]
            try:
                pending = [
                    client.route(3 + i, (11 * i + 40) % _N)
                    for i, client in enumerate(clients)
                    for _ in (0,)
                ]
                return await asyncio.gather(*pending)
            finally:
                for client in clients:
                    await client.close()

        responses = _run_with_server(session, scenario)
        assert len(responses) == 4
        for i, response in enumerate(responses):
            assert response["ok"], response
            assert response["success"] is True
            # The seed policy is public: every response's lane seed matches it.
            assert response["seed"] == session.query_seed(3 + i, (11 * i + 40) % _N)

    def test_pipelined_queries_are_batched(self, session):
        async def scenario(server):
            client = await AsyncRouteClient().connect(server.host, server.port)
            try:
                pairs = [(i % _N, (i * 7 + 31) % _N) for i in range(40)]
                pairs = [(s, t) for (s, t) in pairs if s != t]
                responses = await asyncio.gather(
                    *(client.route(s, t) for (s, t) in pairs)
                )
                info = await client.info()
                return responses, info
            finally:
                await client.close()

        responses, info = _run_with_server(session, scenario, window=0.005)
        assert all(r["ok"] for r in responses)
        # Far fewer sweeps than queries: the batcher actually batched.
        assert info["batcher"]["batches"] < len(responses) / 2

    def test_batched_answers_match_direct_session_routes(self, session):
        async def scenario(server):
            client = await AsyncRouteClient().connect(server.host, server.port)
            try:
                pairs = [(5 * i + 2, (13 * i + 64) % _N) for i in range(16)]
                return pairs, await asyncio.gather(
                    *(client.route(s, t) for (s, t) in pairs)
                )
            finally:
                await client.close()

        pairs, responses = _run_with_server(session, scenario)
        for (source, target), response in zip(pairs, responses):
            direct = session.route(source, target)
            assert response["ok"] and direct.ok
            assert response["steps"] == direct.steps
            assert response["seed"] == direct.seed
            assert response["long_links"] == direct.long_links

    def test_out_of_range_query_errors_but_connection_survives(self, session):
        async def scenario(server):
            client = await AsyncRouteClient().connect(server.host, server.port)
            try:
                bad = await client.route(0, _N + 5)
                good = await client.route(0, 60)
                return bad, good
            finally:
                await client.close()

        bad, good = _run_with_server(session, scenario)
        assert bad["ok"] is False and "out of range" in bad["error"]
        assert good["ok"] is True


def _on_server_writes(monkeypatch, ports, callback):
    """Call ``callback(writer, data)`` before every write of a server-side stream."""
    real_write = asyncio.StreamWriter.write

    def write(writer, data):
        if writer.get_extra_info("sockname")[1] in ports:
            callback(writer, data)
        return real_write(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", write)


class TestCoalescedWrites:
    def test_pipelined_burst_is_answered_in_fewer_writes(self, session, monkeypatch):
        pairs = [(i % _N, (7 * i + 31) % _N) for i in range(200)]
        server_ports, lines_per_write = [], []
        _on_server_writes(
            monkeypatch, server_ports, lambda _, data: lines_per_write.append(data.count(b"\n"))
        )

        async def scenario(server):
            server_ports.append(server.port)
            client = await AsyncRouteClient().connect(server.host, server.port)
            try:
                return await asyncio.gather(*(client.route(s, t) for (s, t) in pairs))
            finally:
                await client.close()

        responses = _run_with_server(session, scenario)
        expected = session.route_queries(
            [(s, t, session.query_seed(s, t)) for (s, t) in pairs]
        )
        assert len(responses) == 200
        for response, outcome in zip(responses, expected):
            assert response["ok"] and outcome.ok
            assert response["seed"] == outcome.seed
            assert response["steps"] == outcome.steps
            assert response["long_links"] == outcome.long_links
        assert sum(lines_per_write) == 200
        assert len(lines_per_write) < 200

    def test_client_that_pauses_reading_gets_every_answer_once(self, session, monkeypatch):
        count = 2000
        server_ports, answers_written, server_drains = [], [], []

        def shrink_buffers(writer, data):
            # Small kernel and transport buffers: answers the client does
            # not read back up past the transport's high-water mark.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            writer.transport.set_write_buffer_limits(high=4096)
            answers_written.append(data.count(b"\n"))

        _on_server_writes(monkeypatch, server_ports, shrink_buffers)
        real_drain = asyncio.StreamWriter.drain

        async def counting_drain(writer):
            if writer.get_extra_info("sockname")[1] in server_ports:
                server_drains.append(writer.transport.get_write_buffer_size())
            await real_drain(writer)

        monkeypatch.setattr(asyncio.StreamWriter, "drain", counting_drain)

        async def until(condition):
            for _ in range(3000):
                if condition():
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("timed out")

        def send(writer, ids):
            for i in ids:
                writer.write(
                    protocol.encode(
                        {"op": "route", "id": i, "source": i % _N, "target": (3 * i + 17) % _N}
                    )
                )

        async def scenario(server):
            server_ports.append(server.port)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((server.host, server.port))
            sock.setblocking(False)
            # A small stream limit pauses the client's transport once a
            # few unread answers are buffered.
            reader, writer = await asyncio.open_connection(sock=sock, limit=1024)
            try:
                # Without reading: the first half's answers fill the server's
                # buffer, and the second half arrives while it is over its
                # limit, so the server stops reading.
                send(writer, range(count // 2))
                await until(lambda: sum(answers_written) >= count // 2)
                send(writer, range(count // 2, count))
                await until(lambda: server_drains)
                lines = [  # then read every answer
                    await asyncio.wait_for(reader.readline(), timeout=30)
                    for _ in range(count)
                ]
                return [json.loads(line) for line in lines]
            finally:
                writer.close()

        responses = _run_with_server(session, scenario)
        assert sorted(r["id"] for r in responses) == list(range(count))
        assert all(r["ok"] for r in responses)


class TestControlOps:
    def test_ping_and_info(self, session):
        async def scenario(server):
            client = await AsyncRouteClient().connect(server.host, server.port)
            try:
                return await client.request({"op": "ping"}), await client.info()
            finally:
                await client.close()

        pong, info = _run_with_server(session, scenario)
        assert pong["ok"] is True and pong["op"] == "ping"
        assert info["family"] == _FAMILY
        assert info["n"] == _N
        assert info["scheme"] == "uniform"
        assert info["max_batch"] == 512
        assert set(info["batcher"]) >= {"submitted", "batches", "count_flushes"}

    def test_malformed_lines_get_error_responses(self, session):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(b"{not json}\n")
                writer.write(b'{"op": "teleport", "id": 4}\n')
                writer.write(b'{"op": "route", "id": 5, "source": "zero", "target": 3}\n')
                writer.write(b'{"op": "route", "id": 6, "source": 0, "target": 60}\n')
                await writer.drain()
                lines = [await reader.readline() for _ in range(4)]
                return [json.loads(line) for line in lines]
            finally:
                writer.close()

        responses = _run_with_server(session, scenario)
        by_id = {r.get("id"): r for r in responses}
        assert by_id[None]["ok"] is False and "JSON" in by_id[None]["error"]
        assert by_id[4]["ok"] is False and "unknown op" in by_id[4]["error"]
        assert by_id[5]["ok"] is False and "integer" in by_id[5]["error"]
        assert by_id[6]["ok"] is True  # the connection survived all of the above


class TestGracefulShutdown:
    def test_stop_drains_accepted_queries(self, session):
        async def scenario():
            server = RouteServer(session, port=0, window=0.05, max_batch=1000)
            await server.start()
            client = await AsyncRouteClient().connect(server.host, server.port)
            pending = [
                asyncio.ensure_future(client.route(i + 1, (i * 17 + 50) % _N))
                for i in range(8)
            ]
            # Give the requests time to reach the batcher, whose long window
            # would hold them; stop() must flush and answer them anyway.
            await asyncio.sleep(0.01)
            await server.stop()
            responses = await asyncio.gather(*pending)
            await client.close()
            return responses

        responses = asyncio.run(scenario())
        assert len(responses) == 8
        assert all(r["ok"] for r in responses)

    def test_stop_then_connect_is_refused(self, session):
        async def scenario():
            server = RouteServer(session, port=0)
            await server.start()
            port = server.port
            await server.stop()
            with pytest.raises(OSError):
                await asyncio.open_connection(server.host, port)

        asyncio.run(scenario())
