"""The asyncio TCP server: NDJSON requests in, micro-batched lane sweeps out.

Each connection is read line by line; every request becomes its own task so a
single connection can pipeline hundreds of queries.  ``route`` requests are
stamped with the session's seed policy and awaited through the
:class:`~repro.serve.batcher.MicroBatcher`; responses are written under a
per-connection lock (tasks complete out of order — the protocol's ``id``
field is what keeps clients sane).

Shutdown is graceful: :meth:`RouteServer.stop` stops accepting connections,
waits for request tasks already accepted, drains the batcher (every accepted
query gets its response) and only then closes the connections.

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
from typing import Optional

from repro.serve import protocol
from repro.serve.batcher import MicroBatcher
from repro.session import RoutingSession

__all__ = ["RouteServer"]


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
        self._writers: set = set()
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
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer, write_lock, protocol.error_response(None, "request line too long")
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._handle_request(line, writer, write_lock)
                )
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client vanished, or the loop is tearing the handler down
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except RuntimeError:  # event loop already closed
                pass

    async def _handle_request(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
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
        await self._write(writer, write_lock, response)

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message: dict
    ) -> None:
        try:
            async with write_lock:
                writer.write(protocol.encode(message))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; its in-flight results are simply dropped
