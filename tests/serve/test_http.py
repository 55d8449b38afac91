"""Tests for the asyncio HTTP transport: parity, caching headers, lifecycle."""

import http.client
import json
import random
import re
import socket

import pytest

import repro.serve.http as serve_http
from repro.core.atoms import AtomSet, PolicyAtom
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.serve import (
    AtomQueryService,
    AtomServer,
    ResponseCache,
    encode_body,
    etag_for,
    serve_in_thread,
)
from repro.store import AtomStore
from repro.store.writer import StoreWriter


@pytest.fixture(scope="module")
def server(served_store_dir):
    with serve_in_thread(str(served_store_dir)) as handle:
        yield handle


@pytest.fixture()
def connection(server):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    yield conn
    conn.close()


def fetch(connection, target, headers=None, method="GET"):
    connection.request(method, target, headers=headers or {})
    response = connection.getresponse()
    return response.status, dict(response.getheaders()), response.read()


class TestEncodeBody:
    def test_canonical_json(self):
        body = encode_body({"b": 1, "a": [1, 2]})
        assert body == b'{"a":[1,2],"b":1}\n'

    def test_key_order_irrelevant(self):
        assert encode_body({"a": 1, "b": 2}) == encode_body({"b": 2, "a": 1})


class TestEtagFor:
    def test_combines_version_and_content(self):
        etag = etag_for("f" * 64, b"body")
        assert etag.startswith('"' + "f" * 16 + "-")
        assert etag.endswith('"')

    def test_body_changes_etag(self):
        version = "a" * 64
        assert etag_for(version, b"x") != etag_for(version, b"y")

    def test_version_changes_etag(self):
        assert etag_for("a" * 64, b"x") != etag_for("b" * 64, b"x")


class TestParity:
    """The wire bytes are exactly ``encode_body(service result)``."""

    def test_prefix_endpoint(self, server, connection, served_store):
        entry = served_store.snapshots()[0]
        for prefix in list(served_store.atoms(entry.key).by_prefix)[:10]:
            status, _, body = fetch(connection, f"/v1/prefix/{prefix}")
            assert status == 200
            assert body == encode_body(
                server.service.prefix_query(str(prefix))
            )

    def test_atom_endpoint(self, server, connection):
        status, _, body = fetch(connection, "/v1/atom/0")
        assert status == 200
        assert body == encode_body(server.service.atom_query(0))

    def test_stats_endpoint(self, server, connection):
        status, _, body = fetch(connection, "/v1/stats")
        assert status == 200
        assert body == encode_body(server.service.stats())

    def test_snapshot_query_parameter(
        self, server, connection, served_store
    ):
        entry = served_store.snapshots()[-1]
        prefix = next(iter(served_store.atoms(entry.key).by_prefix))
        status, _, body = fetch(
            connection, f"/v1/prefix/{prefix}?snapshot={entry.key}"
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["snapshot"] == entry.key
        assert body == encode_body(
            server.service.prefix_query(str(prefix), snapshot=entry.key)
        )


class TestCachingHeaders:
    def test_etag_present_and_revalidates(self, server, connection):
        status, headers, body = fetch(connection, "/v1/stats")
        assert status == 200
        etag = headers["ETag"]
        assert etag == etag_for(server.service.version, body)
        status, headers, body = fetch(
            connection, "/v1/stats", headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag
        assert "Content-Length" not in headers

    def test_weak_etag_revalidates(self, server, connection):
        """``If-None-Match`` compares weakly (RFC 9110 §13.1.2)."""
        _, headers, _ = fetch(connection, "/v1/stats")
        status, _, body = fetch(
            connection, "/v1/stats",
            headers={"If-None-Match": f'"stale", W/{headers["ETag"]}'},
        )
        assert status == 304 and body == b""

    def test_wildcard_revalidates(self, server, connection):
        fetch(connection, "/v1/stats")
        status, _, body = fetch(
            connection, "/v1/stats", headers={"If-None-Match": "*"}
        )
        assert status == 304 and body == b""

    def test_stale_etag_gets_full_body(self, server, connection):
        status, _, body = fetch(
            connection, "/v1/stats", headers={"If-None-Match": '"stale"'}
        )
        assert status == 200 and body

    def test_store_version_header(self, server, connection):
        _, headers, _ = fetch(connection, "/v1/stats")
        assert headers["X-Store-Version"] == server.service.version

    def test_healthz_not_revalidatable(self, server, connection):
        """``/healthz`` embeds live cache stats, so it is never 304'd."""
        status, headers, _ = fetch(connection, "/healthz")
        assert status == 200
        assert "ETag" not in headers
        status, _, body = fetch(
            connection, "/healthz", headers={"If-None-Match": "*"}
        )
        assert status == 200 and body


def mix_targets(store):
    """``{target: fresh service payload}`` over prefixes and atoms under
    two snapshot keys, plus ``/v1/stats``."""
    fresh = AtomQueryService(store)
    entries = store.snapshots()
    targets = {"/v1/stats": fresh.stats()}
    for entry in (entries[0], entries[-1]):
        atoms = store.atoms(entry.key)
        for prefix in sorted(atoms.by_prefix, key=Prefix.key)[:10]:
            targets[f"/v1/prefix/{prefix}?snapshot={entry.key}"] = (
                fresh.prefix_query(str(prefix), snapshot=entry.key))
        for atom_id in range(min(3, len(atoms))):
            targets[f"/v1/atom/{atom_id}?snapshot={entry.key}"] = (
                fresh.atom_query(atom_id, snapshot=entry.key))
    return targets


class TestResponseCaching:
    """The server caches each finished 200 as its body and ETag."""

    def test_responses_are_cached(self, server, connection, served_store):
        entry = served_store.snapshots()[0]
        prefix = next(iter(served_store.atoms(entry.key).by_prefix))
        first = fetch(connection, f"/v1/prefix/{prefix}")
        hits = server.service.cache.stats()["hits"]
        second = fetch(connection, f"/v1/prefix/{prefix}")
        assert server.service.cache.stats()["hits"] == hits + 1
        assert second[2] == first[2]
        assert second[1]["ETag"] == first[1]["ETag"]

    def test_seeded_mix_with_evictions(self, served_store_dir, served_store):
        """Hits, misses and evictions all answer a fresh service's bytes,
        and ``If-None-Match`` gets a 304 on a hit as on a miss."""
        expected = mix_targets(served_store)
        pool = sorted(expected)
        rng = random.Random(23)
        sequence = [rng.choice(pool) for _ in range(200)]
        revalidated = set()
        with serve_in_thread(str(served_store_dir), cache_entries=8) as handle:
            version = handle.service.version
            cache = handle.service.cache
            conn = http.client.HTTPConnection(handle.host, handle.port,
                                              timeout=30)
            try:
                for index, target in enumerate(sequence):
                    body = encode_body(expected[target])
                    etag = etag_for(version, body)
                    hits = cache.stats()["hits"]
                    if index % 5 == 4:
                        status, headers, got = fetch(
                            conn, target, headers={"If-None-Match": etag})
                        assert (status, got) == (304, b""), target
                        revalidated.add(
                            "hit" if cache.stats()["hits"] > hits else "miss")
                    else:
                        status, headers, got = fetch(conn, target)
                        assert (status, got) == (200, body), target
                    assert headers["ETag"] == etag, target
            finally:
                conn.close()
            stats = cache.stats()
        assert revalidated == {"hit", "miss"}
        assert stats["hits"] + stats["misses"] == len(sequence)
        assert stats["hits"] > 0
        assert stats["entries"] == 8 < stats["misses"]  # so some evicted

    def test_encode_runs_once_per_miss(self, served_store_dir, monkeypatch):
        calls = {"encode_body": 0, "etag_for": 0}

        def counted(name):
            original = getattr(serve_http, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(serve_http, name, counted(name))
        targets = ["/v1/stats", "/v1/atom/0", "/v1/atom/1",
                   "/v1/prefix/203.0.113.0/24"]
        with serve_in_thread(str(served_store_dir)) as handle:
            conn = http.client.HTTPConnection(handle.host, handle.port,
                                              timeout=30)
            try:
                for target in targets:
                    assert fetch(conn, target)[0] == 200
                assert calls == {"encode_body": 4, "etag_for": 4}
                for target in targets * 3:
                    assert fetch(conn, target)[0] == 200
            finally:
                conn.close()
            stats = handle.service.cache.stats()
        assert (stats["misses"], stats["hits"]) == (4, 12)
        assert calls == {"encode_body": 4, "etag_for": 4}

    def test_shared_cache_keeps_stores_apart(self, tmp_path):
        """One cache behind two services never serves one store's body
        for the other's identical request."""
        prefix = Prefix.parse("192.0.2.0/24")
        peer = ("rrc00", 65001, "10.0.0.1")
        for name, hops in (("a", [65001, 9]), ("b", [65001, 7, 9])):
            writer = StoreWriter(tmp_path / name)
            writer.add_snapshot("s0", AtomSet(
                [PolicyAtom(0, frozenset([prefix]),
                            (ASPath.from_asns(hops),))], [peer]))
            writer.close()
        shared = ResponseCache(16)
        target = f"/v1/prefix/{prefix}"
        with AtomStore(tmp_path / "a") as a, AtomStore(tmp_path / "b") as b:
            services = [AtomQueryService(store, cache=shared)
                        for store in (a, b)]
            assert services[0].version != services[1].version
            expected = [encode_body(service.prefix_query(str(prefix)))
                        for service in services]
            assert expected[0] != expected[1]
            for _round in range(2):
                for service, body in zip(services, expected):
                    raw, _ = AtomServer(service)._respond(
                        serve_http._Request("GET", target, {}))
                    assert raw.endswith(b"\r\n\r\n" + body)
        assert shared.stats()["misses"] == 2
        assert shared.stats()["hits"] == 2


class TestErrors:
    def test_unknown_endpoint_404(self, server, connection):
        status, _, body = fetch(connection, "/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_invalid_prefix_400(self, server, connection):
        status, _, body = fetch(connection, "/v1/prefix/banana")
        assert status == 400
        assert "banana" in json.loads(body)["error"]

    def test_unknown_atom_404(self, server, connection):
        status, _, _ = fetch(connection, "/v1/atom/99999999")
        assert status == 404

    def test_non_numeric_atom_400(self, server, connection):
        status, _, _ = fetch(connection, "/v1/atom/zero")
        assert status == 400

    def test_unknown_snapshot_404(self, server, connection):
        status, _, _ = fetch(
            connection, "/v1/prefix/10.0.0.0/8?snapshot=nope"
        )
        assert status == 404

    def test_post_405(self, server, connection):
        status, headers, body = fetch(connection, "/v1/stats", method="POST")
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"  # RFC 9110 §15.5.6
        assert "POST" in json.loads(body)["error"]


class TestConnections:
    def test_keep_alive_reuses_connection(self, server, connection):
        for _ in range(3):
            status, headers, _ = fetch(connection, "/v1/stats")
            assert status == 200
            assert headers["Connection"] == "keep-alive"

    def test_connection_close_honoured(self, server):
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            status, headers, _ = fetch(
                conn, "/v1/stats", headers={"Connection": "close"}
            )
            assert status == 200
            assert headers["Connection"] == "close"
        finally:
            conn.close()

    def test_http10_closes_by_default(self, server):
        """An HTTP/1.0 request persists only with ``keep-alive``
        (RFC 9112 §9.3)."""
        answer = exchange(server, b"GET /v1/stats HTTP/1.0\r\n\r\n")
        assert statuses(answer) == [200]
        assert b"\r\nConnection: close\r\n" in answer

    def test_http10_keep_alive_persists(self, server):
        answer = exchange(
            server,
            b"GET /v1/stats HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
            b"GET /healthz HTTP/1.0\r\n\r\n",
        )
        assert statuses(answer) == [200, 200]
        first, second = answer.split(b"HTTP/1.1 200 OK")[1:]
        assert b"\r\nConnection: keep-alive\r\n" in first
        assert b"\r\nConnection: close\r\n" in second

    @pytest.mark.parametrize("fields", [
        b"Connection: close, TE\r\n",
        b"Connection: TE, Close\r\n",
        b"Connection: keep-alive\r\nConnection: close\r\n",
    ])
    def test_close_token_in_a_list_closes(self, server, fields):
        """``Connection`` is a token list (RFC 9110 §7.6.1)."""
        answer = exchange(
            server, b"GET /v1/stats HTTP/1.1\r\n" + fields + b"\r\n"
            + FOLLOW_UP)
        assert statuses(answer) == [200]
        assert b"\r\nConnection: close\r\n" in answer

    def test_garbage_request_closes_quietly(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            assert sock.recv(1024) == b""


def exchange(server, payload: bytes) -> bytes:
    """Send raw bytes; everything the server answers until it closes."""
    answer = b""
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as sock:
        sock.sendall(payload)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed with the refused body still unread
            if not chunk:
                break
            answer += chunk
    return answer


CHUNKED = b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
FOLLOW_UP = b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n"


def statuses(answer: bytes):
    """Status codes of every response in ``answer``, in order."""
    return [int(code) for code in re.findall(rb"HTTP/1\.1 (\d{3}) ", answer)]


def responses(answer: bytes, bodies):
    """Split ``answer`` into ``(status, headers, body)`` per response;
    ``bodies[i]`` says whether response ``i`` carries its body.  Fails
    unless the responses account for every byte."""
    parsed = []
    for has_body in bodies:
        head, _, answer = answer.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers.get("Content-Length", 0)) if has_body else 0
        parsed.append((int(status_line.split()[1]), headers, answer[:length]))
        answer = answer[length:]
    assert answer == b""
    return parsed


class TestHead:
    """``HEAD`` is ``GET`` without the body (RFC 9110 §9.3.2)."""

    def test_head_then_get_on_one_keep_alive_connection(self, server):
        answer = exchange(
            server, b"HEAD /v1/stats HTTP/1.1\r\n\r\n" + FOLLOW_UP
        )
        (head, _, none), (get, _, body) = responses(answer, [False, True])
        assert head == get == 200
        assert none == b"" and body == encode_body(server.service.stats())

    @pytest.mark.parametrize("target", [
        "/v1/stats", "/v1/atom/0", "/healthz", "/v1/prefix/banana", "/nope",
    ])
    def test_head_headers_equal_get_headers(self, server, target):
        answers = {}
        for method in ("GET", "HEAD", "GET", "HEAD"):  # misses, then hits
            answer = exchange(server, (
                f"{method} {target} HTTP/1.1\r\nConnection: close\r\n\r\n"
            ).encode("latin-1"))
            ((status, headers, body),) = responses(answer, [method == "GET"])
            answers.setdefault(method, []).append((status, headers))
        assert answers["HEAD"] == answers["GET"]

    def test_head_revalidates_like_get(self, server):
        answer = exchange(server, FOLLOW_UP)
        ((_, headers, _),) = responses(answer, [True])
        answer = exchange(server, (
            "HEAD /v1/stats HTTP/1.1\r\nConnection: close\r\n"
            f"If-None-Match: {headers['ETag']}\r\n\r\n"
        ).encode("latin-1"))
        ((status, revalidated, _),) = responses(answer, [False])
        assert status == 304
        assert revalidated["ETag"] == headers["ETag"]


class TestFraming:
    """Every request is answered or refused; no body byte is ever read
    as the start of another request."""

    @pytest.mark.parametrize("fields", [
        b"Content-Length: -5\r\n",
        b"Content-Length: five\r\n",
        b"Content-Length: 1_0\r\n",
        b"Content-Length: 0\r\nContent-Length: 5\r\n",
    ])
    def test_malformed_length_is_a_400_and_closes(self, server, fields):
        answer = exchange(server, b"GET /v1/stats HTTP/1.1\r\n" + fields
                          + b"\r\nhello")
        assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert answer.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in answer
        body = answer.partition(b"\r\n\r\n")[2]
        assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_is_a_413_and_nothing_is_smuggled(self, server):
        body = b"x" * 65536 + (
            b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        answer = exchange(
            server,
            b"GET /v1/stats HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
        )
        assert answer.startswith(b"HTTP/1.1 413 Content Too Large\r\n")
        assert answer.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in answer

    def test_a_body_within_the_limit_is_drained(self, server):
        answer = exchange(
            server,
            b"GET /v1/stats HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert answer.count(b"HTTP/1.1 200 OK\r\n") == 2
        assert answer.count(b"HTTP/1.1 ") == 2

    def test_header_line_past_the_read_buffer_closes_quietly(
            self, server, caplog):
        """A line over the stream reader's 64 KiB buffer is refused like
        one over ``MAX_LINE``, not raised out of the handler."""
        with caplog.at_level("ERROR", logger="asyncio"):
            answer = exchange(server, b"GET /v1/stats HTTP/1.1\r\nX-Pad: "
                              + b"a" * 70000 + b"\r\n\r\n" + FOLLOW_UP)
            # The handler has finished once the connection is closed;
            # one more request makes sure its log record would be in.
            assert statuses(exchange(server, FOLLOW_UP)) == [200]
        assert answer == b""
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestTransferEncoding:
    """RFC 9112 §6-7: a chunked body is consumed, never parsed as the
    next request; other codings are refused."""

    def test_request_in_a_chunked_body_is_not_smuggled(self, server):
        answer = exchange(server, CHUNKED + b"\r\n" + FOLLOW_UP)
        assert statuses(answer) == [400]
        assert b"chunk size" in answer
        assert b"\r\nConnection: close\r\n" in answer

    def test_chunked_body_is_drained_before_the_next_request(self, server):
        answer = exchange(
            server, CHUNKED + b"\r\n5\r\nhello\r\n0\r\n\r\n" + FOLLOW_UP)
        assert statuses(answer) == [200, 200]
        assert b'"store_version"' in answer  # /healthz, then /v1/stats

    def test_chunk_extensions_and_trailers_are_drained(self, server):
        answer = exchange(
            server,
            CHUNKED + b"\r\n3;name=value\r\nabc\r\n2\r\nde\r\n0\r\n"
            b"X-Checksum: 1\r\n\r\n" + FOLLOW_UP,
        )
        assert statuses(answer) == [200, 200]

    def test_chunk_data_overrunning_its_size_is_a_400(self, server):
        answer = exchange(server, CHUNKED + b"\r\n2\r\nhello\r\n0\r\n\r\n"
                          + FOLLOW_UP)
        assert statuses(answer) == [400]

    def test_other_codings_are_a_501_and_close(self, server):
        for coding in (b"gzip", b"gzip, chunked", b"identity"):
            answer = exchange(
                server,
                b"GET /v1/stats HTTP/1.1\r\nTransfer-Encoding: " + coding
                + b"\r\n\r\n" + FOLLOW_UP,
            )
            assert statuses(answer) == [501], coding
            assert answer.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
            assert b"\r\nConnection: close\r\n" in answer

    def test_oversized_chunked_body_is_a_413(self, server):
        one_chunk = CHUNKED + b"\r\n10001\r\n" + b"x" * 16 + FOLLOW_UP
        many_chunks = (CHUNKED + b"\r\n"
                       + (b"400\r\n" + b"x" * 1024 + b"\r\n") * 70
                       + b"0\r\n\r\n" + FOLLOW_UP)
        for payload in (one_chunk, many_chunks):
            answer = exchange(server, payload)
            assert statuses(answer) == [413]
            assert b"\r\nConnection: close\r\n" in answer

    def test_chunk_size_line_past_the_read_buffer_is_a_400(self, server):
        answer = exchange(server, CHUNKED + b"\r\n" + b"0" * 70000
                          + b"1\r\nx\r\n0\r\n\r\n" + FOLLOW_UP)
        assert statuses(answer) == [400]

    def test_both_framings_answer_then_close(self, server):
        answer = exchange(
            server,
            CHUNKED + b"Content-Length: 5\r\n\r\n0\r\n\r\n" + FOLLOW_UP,
        )
        assert statuses(answer) == [200]
        assert b"\r\nConnection: close\r\n" in answer

    def test_http10_chunked_answers_then_closes(self, server):
        """An HTTP/1.0 message carrying Transfer-Encoding closes the
        connection after it, keep-alive or not (RFC 9112 §6.1)."""
        answer = exchange(
            server,
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n" + FOLLOW_UP,
        )
        assert statuses(answer) == [200]
        assert b"\r\nConnection: close\r\n" in answer


class TestLifecycle:
    def test_shutdown_refuses_new_connections(self, served_store_dir):
        with serve_in_thread(str(served_store_dir)) as handle:
            host, port = handle.host, handle.port
            conn = http.client.HTTPConnection(host, port, timeout=30)
            status, _, _ = fetch(conn, "/healthz")
            assert status == 200
            conn.close()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()

    def test_separate_servers_share_nothing(self, served_store_dir):
        with serve_in_thread(str(served_store_dir)) as first:
            with serve_in_thread(str(served_store_dir)) as second:
                assert first.port != second.port
                for handle in (first, second):
                    conn = http.client.HTTPConnection(
                        handle.host, handle.port, timeout=30
                    )
                    status, _, _ = fetch(conn, "/v1/stats")
                    conn.close()
                    assert status == 200
