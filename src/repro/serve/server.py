"""The asyncio TCP server: NDJSON requests in, micro-batched lane sweeps out.

Each connection is read line by line; every request becomes its own task so a
single connection can pipeline hundreds of queries.  ``route`` requests are
stamped with the session's seed policy and awaited through the
:class:`~repro.serve.batcher.MicroBatcher`.  A batch resolves all its
queries in one event-loop pass, so each connection queues its encoded
response lines and sends them with one ``write`` per loop pass, not one
per answer (tasks complete out of order — the protocol's ``id`` field is
what keeps clients sane).  The reader awaits ``drain()`` only while the
transport's buffer is over its high-water mark, so a client that stops
reading stops being read.

Shutdown is graceful: :meth:`RouteServer.stop` stops accepting connections,
waits for request tasks already accepted, drains the batcher (every accepted
query gets its response), flushes the queued lines and only then closes the
connections.

The server is distance-provider agnostic: it talks to the session, and the
session talks to whatever :class:`~repro.graphs.provider.DistanceProvider`
it was opened with.  The ``info`` op therefore surfaces the session's
``distance_mode`` (plus ``landmarks`` / ``mean_stretch`` in landmark mode)
without any serve-layer wiring.  Served trajectories always ride the
provider's exact tier; only the ball and Kleinberg schemes' contact draws
read the query tier, so with any other scheme routed outcomes are
mode-independent.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional

from repro.serve import protocol
from repro.serve.batcher import MicroBatcher
from repro.session import RoutingSession

__all__ = ["RouteServer"]


class _Outbox:
    """One connection's encoded response lines, sent with one write per loop pass.

    The first line queued in a pass schedules :meth:`flush` for the next
    pass, by which time every request the same batch answered has queued
    its line too.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._lines: List[bytes] = []

    def send(self, message: dict) -> None:
        if not self._lines:
            asyncio.get_running_loop().call_soon(self.flush)
        self._lines.append(protocol.encode(message))

    def flush(self) -> None:
        """Write every queued line in one call (nothing when none is queued)."""
        if not self._lines:
            return
        data = b"".join(self._lines)
        self._lines.clear()
        try:
            self._writer.write(data)
        except (ConnectionError, RuntimeError):
            pass  # client went away; its in-flight results are simply dropped

    def close(self) -> None:
        """Flush the queued lines, then close the connection."""
        self.flush()
        try:
            self._writer.close()
        except RuntimeError:  # event loop already closed
            pass


class RouteServer:
    """Serve a :class:`~repro.session.RoutingSession` over NDJSON TCP.

    Parameters
    ----------
    session:
        The warmed session answering the queries.
    host, port:
        Bind address; ``port=0`` lets the OS pick (see :attr:`port`).
    max_batch, window:
        Micro-batcher flush thresholds (queries, seconds).
    """

    def __init__(
        self,
        session: RoutingSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 512,
        window: float = 0.001,
    ) -> None:
        self._session = session
        self._host = host
        self._requested_port = int(port)
        self._batcher = MicroBatcher(
            self._route_batch, max_batch=max_batch, window=window
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._request_tasks: set = set()
        self._outboxes: set = set()
        self._stopping = False

    def _route_batch(self, items):
        """Runner for the batcher: one lane sweep over the batch (worker thread)."""
        return self._session.route_queries(items)

    @property
    def session(self) -> RoutingSession:
        return self._session

    @property
    def batcher(self) -> MicroBatcher:
        return self._batcher

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return int(self._server.sockets[0].getsockname()[1])
        return self._requested_port

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._requested_port,
            limit=protocol.MAX_LINE_BYTES,
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Graceful shutdown: drain accepted queries, then close connections."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Requests already read off a socket run to completion ...
        while self._request_tasks:
            await asyncio.gather(*list(self._request_tasks), return_exceptions=True)
        # ... which requires the batcher to flush what they submitted.
        await self._batcher.close()
        for outbox in list(self._outboxes):
            outbox.close()
        self._outboxes.clear()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        outbox = _Outbox(writer)
        self._outboxes.add(outbox)
        transport = writer.transport
        try:
            while not self._stopping:
                if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[1]:
                    await writer.drain()  # the client is not reading: stop reading it
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    outbox.send(protocol.error_response(None, "request line too long"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(self._handle_request(line, outbox))
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client vanished, or the loop is tearing the handler down
        finally:
            self._outboxes.discard(outbox)
            outbox.close()

    async def _handle_request(self, line: bytes, outbox: _Outbox) -> None:
        request_id = None
        try:
            message = protocol.decode_request(line)
            request_id = message.get("id")
            op = message["op"]
            if op == "ping":
                response = {"id": request_id, "ok": True, "op": "ping"}
            elif op == "info":
                response = {"id": request_id, "ok": True, "op": "info"}
                response.update(self._session.info())
                response["max_batch"] = self._batcher.max_batch
                response["window_ms"] = self._batcher.window * 1000.0
                response["batcher"] = dict(self._batcher.stats)
            else:  # route
                source, target, nonce = protocol.parse_route_request(message)
                seed = self._session.query_seed(source, target, nonce)
                started = time.perf_counter()
                outcome = await self._batcher.submit((source, target, seed))
                latency_ms = (time.perf_counter() - started) * 1000.0
                response = protocol.route_response(request_id, outcome, latency_ms)
        except protocol.ProtocolError as exc:
            if request_id is None:
                request_id = exc.request_id
            response = protocol.error_response(request_id, str(exc))
        except Exception as exc:  # noqa: BLE001 - per-request failure, keep serving
            response = protocol.error_response(request_id, f"internal error: {exc}")
        outbox.send(response)
