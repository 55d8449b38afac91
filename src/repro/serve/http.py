"""Async HTTP/1.1 transport for the atom query service.

A deliberately small, dependency-free server on
``asyncio.start_server``: request parsing, routing, keep-alive and
shutdown live here; every answer comes from an
:class:`~repro.serve.service.AtomQueryService`.  Response bodies are
canonical JSON (sorted keys, compact separators), so the bytes on the
wire equal ``encode_body(service.<endpoint>(...))`` on a cache hit as
on a miss — the parity property the benchmarks gate on.

Caching: the server looks every ``GET`` and ``HEAD`` up in the
service's :class:`~repro.serve.cache.ResponseCache` before routing it,
keyed by the store version, the request path and its ``snapshot``
parameter — exactly what routing reads, so the key is exact.  A miss
is routed, encoded and hashed once and stored as its ``(body, ETag)``
pair; a hit is framed from that pair.  Every 200 carries a strong ETag
combining the store's manifest digest (the snapshot version) with the
body digest, plus the full digest in ``X-Store-Version``.  A request
whose ``If-None-Match`` lists the current ETag is answered ``304 Not
Modified`` without a body; because the ETag embeds the store version,
a client can never revalidate a response from a rebuilt store.
``If-None-Match`` uses weak comparison (RFC 9110 §13.1.2), so
``W/"<etag>"`` matches too.  A ``HEAD`` is answered exactly like a
``GET``, ``Content-Length`` included, without the body (RFC 9110
§9.3.2); any other method gets ``405`` with ``Allow: GET, HEAD``.

Connections persist as RFC 9112 §9.3 says: ``Connection`` is a
case-insensitive token list (RFC 9110 §7.6.1), a ``close`` token ends
the connection after the response, an HTTP/1.0 request persists only
with a ``keep-alive`` token, and one of any other version never does.

Request framing is strict: a ``Content-Length`` that is not a plain
decimal count (negative, signed, a repeated field) is
answered ``400`` and one above :data:`MAX_BODY` ``413``, each with
``Connection: close`` and without reading the body, so no body byte is
ever parsed as the next request.  A ``chunked`` body (RFC 9112 §7.1) is
read and discarded, trailers included, under the same limit; a
malformed chunk is a ``400``, any other transfer coding a ``501``.  A
request carrying both ``Transfer-Encoding`` and ``Content-Length`` is
framed by the former and answered with ``Connection: close`` (§6.3),
as is an HTTP/1.0 request carrying ``Transfer-Encoding`` (§6.1).

Shutdown is graceful: the listener closes first, in-flight responses
finish (keep-alive loops observe the closing flag), idle connections
are then disconnected, and :meth:`AtomServer.shutdown` returns only
when every connection handler has exited.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.obs import get_tracer
from repro.serve.service import AtomQueryService, QueryError
from repro.store.format import StoreError

#: Longest request line / header line accepted (bytes).
MAX_LINE = 8192

#: Largest request body accepted (the API is GET/HEAD-only; bodies are
#: drained, larger ones refused with 413).
MAX_BODY = 65536

SERVER_NAME = "repro-serve"

_STATUS_TEXT = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line, or ``b""`` at EOF or for a line over :data:`MAX_LINE`
    bytes (the reader raises ``ValueError`` past its 64 KiB buffer)."""
    try:
        line = await reader.readline()
    except ValueError:
        return b""
    return b"" if len(line) > MAX_LINE else line


async def _drain_chunked(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, str]]:
    """Read and discard one chunked body, trailers included (RFC
    9112 §7.1); the ``(status, message)`` to answer instead if it is
    malformed or over :data:`MAX_BODY` bytes, else None."""
    total = 0
    while True:
        line = await _read_line(reader)
        total += len(line)
        size_text = line.split(b";", 1)[0].strip()
        # Hex digits only: int(..., 16) would also take a sign, a 0x
        # prefix or underscores.
        if (not line.endswith(b"\n") or not size_text
                or size_text.strip(b"0123456789abcdefABCDEF")):
            return 400, f"malformed chunk size line {line[:40]!r}"
        size = int(size_text, 16)
        if size == 0:
            break
        total += size + 2
        if total > MAX_BODY:
            return 413, f"request body over {MAX_BODY} bytes"
        await reader.readexactly(size)
        if await _read_line(reader) not in (b"\r\n", b"\n"):
            return 400, "chunk data not followed by CRLF"
    while True:  # the trailer section ends at an empty line
        line = await _read_line(reader)
        total += len(line)
        if total > MAX_BODY:
            return 413, f"request body over {MAX_BODY} bytes"
        if not line.endswith(b"\n"):
            return 400, "malformed chunked trailer section"
        if line in (b"\r\n", b"\n"):
            return None


def encode_body(payload: Any) -> bytes:
    """Canonical JSON bytes of one response payload."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def etag_for(store_version: str, body: bytes) -> str:
    """Strong ETag: snapshot version + content digest."""
    content = hashlib.sha256(body).hexdigest()
    return f'"{store_version[:16]}-{content[:16]}"'


def _persists(version: str, headers: Dict[str, str]) -> bool:
    """Whether the connection stays open after answering a request of
    this HTTP ``version`` with these ``headers`` (RFC 9112 §9.3)."""
    options = {
        token.strip().lower()
        for token in headers.get("connection", "").split(",")
    }
    if "close" in options:
        return False
    if version == "HTTP/1.1":
        return True
    return version == "HTTP/1.0" and "keep-alive" in options


class _Request:
    """One parsed request: method, split target, headers.

    ``framing_error`` is the ``(status, message)`` answer of a request
    whose body could not be framed; the connection closes after it, as
    it does after any request with ``must_close`` set (its version and
    ``Connection`` header ask for that, or its framing is ambiguous).
    """

    __slots__ = ("method", "path", "query", "headers", "framing_error",
                 "must_close")

    def __init__(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        framing_error: Optional[Tuple[int, str]] = None,
        must_close: bool = False,
    ):
        split = urlsplit(target)
        self.method = method
        self.path = unquote(split.path)
        self.query = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        self.headers = headers
        self.framing_error = framing_error
        self.must_close = must_close


class AtomServer:
    """Serves one :class:`AtomQueryService` over HTTP/1.1.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  The server never touches the store concurrently
    with an answer in a way the reader cannot take — all reads go
    through the service layer, which is safe for the event loop's
    serialized access.
    """

    def __init__(
        self,
        service: AtomQueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self._handlers: set = set()
        self._busy: set = set()
        self._writers: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.host, self.port = sockets[0].getsockname()[:2]
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("serve.started")
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (CLI foreground mode)."""
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting, let in-flight responses finish, disconnect.

        Idempotent; returns once every connection handler has exited.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections sit in readline(); closing their
        # transports unblocks them.  Busy ones finish their response
        # first (the handler loop re-checks the closing flag).
        for writer in list(self._writers):
            if writer not in self._busy:
                writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("serve.stopped")

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._writers.add(writer)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("serve.connections")
        try:
            while not self._closing:
                request = await self._read_request(reader)
                if request is None:
                    break
                self._busy.add(writer)
                try:
                    response, keep_alive = self._respond(request)
                    writer.write(response)
                    await writer.drain()
                    if tracer.enabled:
                        tracer.count("serve.bytes_sent", len(response))
                finally:
                    self._busy.discard(writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        """Parse one request; None on EOF or a malformed request or
        header line.  A body that cannot be framed comes back as a
        request carrying its ``framing_error``, unread."""
        line = await _read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await _read_line(reader)
            if not raw:
                return None
            if raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            # Repeated fields combine into one list (RFC 9110 §5.3), so
            # two Content-Length lines fail the check below.
            if name in headers:
                value = f"{headers[name]}, {value}"
            headers[name] = value
        must_close = not _persists(version, headers)
        coding = headers.get("transfer-encoding")
        if coding is not None:
            if coding.lower() != "chunked":
                return _Request(method, target, headers, (
                    501, f"transfer coding {coding!r} not implemented"))
            # Transfer-Encoding overrides Content-Length; a request
            # carrying both may be a smuggling attempt (RFC 9112 §6.3),
            # and so is an HTTP/1.0 one carrying it at all (§6.1).
            return _Request(method, target, headers,
                            await _drain_chunked(reader),
                            must_close=must_close or version == "HTTP/1.0"
                            or "content-length" in headers)
        length = headers.get("content-length", "0")
        framing_error: Optional[Tuple[int, str]] = None
        if not (length.isascii() and length.isdigit()):
            framing_error = (400, f"malformed Content-Length {length!r}")
        elif int(length) > MAX_BODY:
            framing_error = (413, f"request body over {MAX_BODY} bytes")
        elif int(length):
            await reader.readexactly(int(length))
        return _Request(method, target, headers, framing_error, must_close)

    # ------------------------------------------------------------------
    # Routing + rendering
    # ------------------------------------------------------------------

    def _route(self, request: _Request) -> Any:
        """The 200 payload for one ``GET``/``HEAD``; QueryError otherwise."""
        path = request.path
        snapshot = request.query.get("snapshot")
        if path == "/healthz":
            return {
                "status": "ok",
                "store_version": self.service.version,
                "cache": self.service.cache.stats(),
            }
        if path == "/v1/stats":
            return self.service.stats()
        if path.startswith("/v1/prefix/"):
            cidr = path[len("/v1/prefix/"):]
            return self.service.prefix_query(cidr, snapshot=snapshot)
        if path.startswith("/v1/atom/"):
            raw = path[len("/v1/atom/"):]
            try:
                atom_id = int(raw)
            except ValueError:
                raise QueryError(f"invalid atom id {raw!r}") from None
            return self.service.atom_query(atom_id, snapshot=snapshot)
        raise QueryError(f"no such endpoint {path!r}", status=404)

    def _answer(self, request: _Request) -> Tuple[int, bytes, Optional[str]]:
        """``(status, body, ETag)`` for one request.

        A ``GET`` or ``HEAD`` other than ``/healthz`` (whose body holds
        live cache counters) is looked up in the response cache before
        routing; its 200 is built once, stored with its ETag, and later
        framed from the cache.  Every other answer has no ETag.
        """
        if request.framing_error is not None:
            status, message = request.framing_error
            return status, encode_body({"error": message}), None
        if request.method not in ("GET", "HEAD"):
            error = f"method {request.method} not allowed"
            return 405, encode_body({"error": error}), None
        cache = self.service.cache
        cacheable = request.path != "/healthz"
        key = (self.service.version, request.path, request.query.get("snapshot"))
        if cacheable:
            hit, found = cache.get(key)
            if hit:
                body, etag = found
                return 200, body, etag
        try:
            payload = self._route(request)
        except QueryError as error:
            return error.status, encode_body({"error": str(error)}), None
        except StoreError as error:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.count("serve.store_errors")
            return 500, encode_body({"error": f"store error: {error}"}), None
        body = encode_body(payload)
        if not cacheable:
            return 200, body, None
        etag = etag_for(self.service.version, body)
        cache.put(key, (body, etag))
        return 200, body, etag

    def _respond(self, request: _Request) -> Tuple[bytes, bool]:
        """Render one request into response bytes + keep-alive flag."""
        tracer = get_tracer()
        keep_alive = request.framing_error is None and not request.must_close
        with tracer.span(
            "serve-request", method=request.method, path=request.path
        ) as span:
            if tracer.enabled:
                tracer.count("serve.requests")
            status, body, etag = self._answer(request)
            headers = [
                ("Server", SERVER_NAME),
                ("Content-Type", "application/json"),
                ("X-Store-Version", self.service.version),
            ]
            if etag is not None:
                headers.append(("ETag", etag))
                if self._etag_matches(request, etag):
                    if tracer.enabled:
                        tracer.count("serve.responses_304")
                    span.set(status=304)
                    response = self._frame(304, headers, b"", keep_alive)
                    return response, keep_alive
            if status == 405:
                headers.append(("Allow", "GET, HEAD"))
            if status >= 400 and tracer.enabled:
                tracer.count("serve.errors")
            span.set(status=status)
            response = self._frame(status, headers, body, keep_alive)
            if request.method == "HEAD":
                response = response[: len(response) - len(body)]
            return response, keep_alive

    @staticmethod
    def _etag_matches(request: _Request, etag: str) -> bool:
        raw = request.headers.get("if-none-match")
        if raw is None:
            return False
        # Weak comparison: a W/ prefix does not change the opaque tag.
        candidates = {
            item.strip().removeprefix("W/") for item in raw.split(",")
        }
        return etag in candidates or "*" in candidates

    @staticmethod
    def _frame(status, headers, body: bytes, keep_alive: bool) -> bytes:
        lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        if status != 304:
            lines.append(f"Content-Length: {len(body)}")
        lines.append(
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
        )
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head if status == 304 else head + body
