"""Asyncio HTTP/SSE front-end of the estimation service.

A deliberately small stdlib-only HTTP/1.1 server (``asyncio.start_server`` +
hand-rolled request parsing — no web framework) exposing
:class:`~repro.service.core.EstimationService` over JSON:

========  =========================  =============================================
method    path                       purpose
========  =========================  =============================================
GET       ``/``                      service banner + endpoint index
GET       ``/health``                liveness probe
GET       ``/stats``                 scheduler counters
POST      ``/jobs``                  submit a JobSpec (201, 400, 413, 429)
GET       ``/jobs``                  list all jobs (submission order)
GET       ``/jobs/{id}``             job snapshot (includes result when done)
GET       ``/jobs/{id}/result``      result payload only (409 until finished)
GET       ``/jobs/{id}/events``      Server-Sent Events stream (``?from=<seq>``)
DELETE    ``/jobs/{id}``             cancel (snapshots a resumable checkpoint)
POST      ``/jobs/{id}/resume``      re-queue a cancelled/interrupted job
========  =========================  =============================================

The SSE stream replays the job's persisted event log from ``?from`` (default
0) and then follows live publications until the terminal event; each frame is
``id: <seq>`` + ``data: <envelope JSON>``, with comment heartbeats while the
job is idle, so a dropped client reconnects with ``?from=<last id + 1>`` and
misses nothing.  Request parsing is defensive: oversized headers/bodies,
malformed JSON and unknown routes all map to clean 4xx responses long before
a worker thread could be disturbed.  See ``docs/service.md`` for the
operator guide and a worked curl session.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qs, unquote, urlsplit

from repro.service.core import (
    EstimationService,
    InvalidJobError,
    JobStateError,
    ServiceFullError,
    UnknownJobError,
)

#: Request-size caps: everything beyond is a client error, never a crash.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: Oversized bodies up to this size are read and discarded before the 413 is
#: sent, so clients mid-upload see the response instead of a broken pipe;
#: anything larger gets the connection dropped after the 413.
MAX_DRAIN_BYTES = 8 * MAX_BODY_BYTES

#: Seconds of SSE silence after which a comment heartbeat is emitted.
SSE_HEARTBEAT_SECONDS = 15.0

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

_ERROR_STATUS = {
    InvalidJobError: 400,
    UnknownJobError: 404,
    JobStateError: 409,
    ServiceFullError: 429,
}


class _HttpError(Exception):
    """Internal: abort request handling with a specific status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _CloseConnection(Exception):
    """Internal: the response is fully written; close the connection now."""


class ServiceServer:
    """Binds an :class:`EstimationService` to an asyncio TCP listener.

    The server owns no scheduling state of its own: every request is parsed,
    routed, and answered from the service's thread-safe surface.  Blocking
    calls (``submit``) hop to a thread via :func:`asyncio.to_thread`; SSE
    streams await the service's per-job :class:`asyncio.Event` chain, so an
    idle stream costs no polling.  Use ``port=0`` for an ephemeral port and
    read :attr:`address` after :meth:`start`.
    """

    def __init__(self, service: EstimationService, host: str = "127.0.0.1", port: int = 8642):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound ``(host, port)`` (resolves ``port=0``)."""
        if self._server is not None and self._server.sockets:
            sock = self._server.sockets[0]
            host, port = sock.getsockname()[:2]
            return host, port
        return self.host, self.port

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        host, port = self.address
        return f"http://{host}:{port}"

    async def start(self) -> "ServiceServer":
        """Bind the listener and start the worker pool."""
        self.service.attach_loop(asyncio.get_running_loop())
        self.service.start()
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        return self

    async def stop(self) -> None:
        """Close the listener and shut the worker pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self.service.shutdown)

    async def serve_forever(self) -> None:
        """Run until cancelled (used by ``repro serve``)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------ connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    await self._send_error(writer, error.status, str(error))
                    break
                if request is None:
                    break  # client closed the connection cleanly
                method, path, query, body, keep_alive = request
                try:
                    await self._dispatch(writer, method, path, query, body, keep_alive)
                except _CloseConnection:
                    break
                except _HttpError as error:
                    await self._send_error(writer, error.status, str(error), keep_alive)
                except Exception as error:  # noqa: BLE001 — never kill the acceptor
                    await self._send_error(
                        writer, 500, f"{type(error).__name__}: {error}", keep_alive=False
                    )
                    break
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, list[str]], bytes, bool] | None:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise _HttpError(400, "truncated request") from None
        except asyncio.LimitOverrunError:
            raise _HttpError(413, f"headers exceed {MAX_HEADER_BYTES} bytes") from None
        if len(header_blob) > MAX_HEADER_BYTES:
            raise _HttpError(413, f"headers exceed {MAX_HEADER_BYTES} bytes")
        try:
            head = header_blob.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        parts = urlsplit(target)
        path = unquote(parts.path)
        query = parse_qs(parts.query)
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, f"invalid Content-Length {length_text!r}") from None
        if length < 0:
            raise _HttpError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            if length <= MAX_DRAIN_BYTES:
                try:
                    await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    pass
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        return method.upper(), path, query, body, keep_alive

    # -------------------------------------------------------------- dispatch
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict[str, list[str]],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        segments = [segment for segment in path.split("/") if segment]
        if not segments:
            if method != "GET":
                raise _HttpError(405, "only GET /")
            await self._send_json(writer, 200, self._banner(), keep_alive)
            return
        if segments == ["health"]:
            await self._send_json(writer, 200, {"ok": True}, keep_alive)
            return
        if segments == ["stats"]:
            await self._send_json(writer, 200, self.service.stats(), keep_alive)
            return
        if segments[0] != "jobs":
            raise _HttpError(404, f"no route for {path!r}")
        handler = self._job_route(method, segments)
        await handler(writer, segments, query, body, keep_alive)

    def _job_route(
        self, method: str, segments: list[str]
    ) -> Callable[..., Awaitable[None]]:
        if len(segments) == 1:
            if method == "POST":
                return self._handle_submit
            if method == "GET":
                return self._handle_list
            raise _HttpError(405, "use POST /jobs or GET /jobs")
        if len(segments) == 2:
            if method == "GET":
                return self._handle_get_job
            if method == "DELETE":
                return self._handle_cancel
            raise _HttpError(405, "use GET or DELETE on /jobs/{id}")
        if len(segments) == 3 and segments[2] == "events" and method == "GET":
            return self._handle_events
        if len(segments) == 3 and segments[2] == "result" and method == "GET":
            return self._handle_result
        if len(segments) == 3 and segments[2] == "resume" and method == "POST":
            return self._handle_resume
        raise _HttpError(404, f"no route for {'/' + '/'.join(segments)!r}")

    def _banner(self) -> dict[str, Any]:
        return {
            "service": "repro-estimation-service",
            "endpoints": [
                "GET /health",
                "GET /stats",
                "POST /jobs",
                "GET /jobs",
                "GET /jobs/{id}",
                "GET /jobs/{id}/result",
                "GET /jobs/{id}/events?from=<seq>",
                "DELETE /jobs/{id}",
                "POST /jobs/{id}/resume",
            ],
        }

    # -------------------------------------------------------------- handlers
    async def _handle_submit(self, writer, segments, query, body, keep_alive) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError) as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}") from None
        if payload is None:
            raise _HttpError(400, "request body must contain a JSON job spec")
        try:
            # Validation resolves (and possibly parses) the circuit — run it
            # off the event loop so slow submissions never stall other clients.
            snapshot = await asyncio.to_thread(self.service.submit_snapshot, payload)
        except tuple(_ERROR_STATUS) as error:
            raise _HttpError(_ERROR_STATUS[type(error)], str(error)) from None
        await self._send_json(writer, 201, snapshot, keep_alive)

    async def _handle_list(self, writer, segments, query, body, keep_alive) -> None:
        records = self.service.jobs()
        await self._send_json(
            writer,
            200,
            {"jobs": [record.snapshot() for record in records], "count": len(records)},
            keep_alive,
        )

    def _record(self, segments: list[str]):
        try:
            return self.service.get(segments[1])
        except UnknownJobError as error:
            raise _HttpError(404, str(error)) from None

    async def _handle_get_job(self, writer, segments, query, body, keep_alive) -> None:
        await self._send_json(writer, 200, self._record(segments).snapshot(), keep_alive)

    async def _handle_result(self, writer, segments, query, body, keep_alive) -> None:
        record = self._record(segments)
        if record.result_payload is None:
            raise _HttpError(
                409, f"job {record.id} is {record.status}; no result available"
            )
        await self._send_json(writer, 200, record.result_payload, keep_alive)

    async def _handle_cancel(self, writer, segments, query, body, keep_alive) -> None:
        record = self._record(segments)
        try:
            await asyncio.to_thread(self.service.cancel, record.id)
        except JobStateError as error:
            raise _HttpError(409, str(error)) from None
        await self._send_json(writer, 200, record.snapshot(), keep_alive)

    async def _handle_resume(self, writer, segments, query, body, keep_alive) -> None:
        record = self._record(segments)
        try:
            await asyncio.to_thread(self.service.resume, record.id)
        except tuple(_ERROR_STATUS) as error:
            raise _HttpError(_ERROR_STATUS[type(error)], str(error)) from None
        await self._send_json(writer, 200, record.snapshot(), keep_alive)

    async def _handle_events(self, writer, segments, query, body, keep_alive) -> None:
        record = self._record(segments)
        try:
            start = int(query.get("from", ["0"])[0])
        except ValueError:
            raise _HttpError(400, "'from' must be an integer event seq") from None
        if start < 0:
            raise _HttpError(400, "'from' must be >= 0")
        headers = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(headers.encode("latin-1"))
        cursor = start
        while True:
            # Capture the change event BEFORE scanning the log: a publication
            # between scan and wait replaces the event we already hold, so the
            # set() still wakes us and no event can be missed.
            change = record.async_change
            events = record.events
            while cursor < len(events):
                envelope = events[cursor]
                frame = f"id: {envelope['seq']}\ndata: {json.dumps(envelope)}\n\n"
                writer.write(frame.encode("utf-8"))
                cursor += 1
            await writer.drain()
            if record.is_finished and cursor >= len(record.events):
                break
            try:
                await asyncio.wait_for(change.wait(), timeout=SSE_HEARTBEAT_SECONDS)
            except asyncio.TimeoutError:
                writer.write(b": heartbeat\n\n")
                await writer.drain()
        writer.write(b": stream-end\n\n")
        await writer.drain()
        raise _CloseConnection  # the SSE response promised Connection: close

    # ------------------------------------------------------------- responses
    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Any, keep_alive: bool = True
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        reason = _REASONS.get(status, "OK")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _send_error(
        self, writer: asyncio.StreamWriter, status: int, message: str, keep_alive: bool = False
    ) -> None:
        try:
            await self._send_json(writer, status, {"error": message, "status": status}, keep_alive)
        except (ConnectionError, OSError):
            pass


async def serve(
    service: EstimationService, host: str = "127.0.0.1", port: int = 8642
) -> None:
    """Run the service server until cancelled (the ``repro serve`` main loop)."""
    server = ServiceServer(service, host=host, port=port)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.stop()


class ServiceThread:
    """A server running on a background thread — for tests and the load bench.

    ``start()`` blocks until the listener is bound and returns the base URL;
    ``stop()`` tears the loop, listener and worker pool down.  Usable as a
    context manager.
    """

    def __init__(self, service: EstimationService, host: str = "127.0.0.1", port: int = 0):
        self.server = ServiceServer(service, host=host, port=port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return self.server.url

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise RuntimeError("service server failed to start") from self._failure
        if not self._ready.is_set():
            raise RuntimeError("service server did not start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as error:  # noqa: BLE001 — surfaced to start()
            self._failure = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
