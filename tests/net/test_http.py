"""Unit tests for the stdlib HTTP/1.1 framing layer (`repro.net.http`)."""

import asyncio
import json

import pytest

from repro.net.http import (
    HttpError,
    json_response,
    read_request,
)


def parse(raw: bytes, **kwargs):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


class TestReadRequest:
    def test_simple_get(self):
        req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert (req.method, req.path) == ("GET", "/healthz")
        assert req.query == {}
        assert req.headers["host"] == "x"
        assert req.body == b""
        assert req.keep_alive

    def test_query_string(self):
        req = parse(b"GET /v1/jobs/j1?wait=2.5&x=1 HTTP/1.1\r\n\r\n")
        assert req.path == "/v1/jobs/j1"
        assert req.query == {"wait": "2.5", "x": "1"}
        assert req.query_float("wait") == 2.5
        assert req.query_float("absent") is None

    def test_bad_query_float(self):
        req = parse(b"GET /x?wait=soon HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError) as err:
            req.query_float("wait")
        assert err.value.status == 400

    def test_negative_query_float_rejected(self):
        req = parse(b"GET /x?wait=-1 HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError):
            req.query_float("wait")

    def test_body_by_content_length(self):
        body = json.dumps({"basis": "b"}).encode()
        raw = (
            b"POST /v1/query HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        req = parse(raw)
        assert req.json() == {"basis": "b"}

    def test_connection_close_header(self):
        req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive

    def test_eof_between_requests_is_none(self):
        assert parse(b"") is None

    def test_truncated_request_rejected(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/1.1\r\nHost")
        assert err.value.status == 400

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as err:
            parse(b"FETCH/1.1\r\n\r\n")
        assert err.value.status == 400

    def test_chunked_rejected(self):
        with pytest.raises(HttpError) as err:
            parse(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert err.value.status == 501

    def test_oversized_body_rejected(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(HttpError) as err:
            parse(raw, max_body_bytes=10)
        assert err.value.status == 413

    def test_bad_content_length_rejected(self):
        # int() reads "1_0" as 10 and "+5" as 5; a length is digits only.
        for value in (b"nope", b"-5", b"1_0", b"+5"):
            with pytest.raises(HttpError) as err:
                parse(b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n")
            assert err.value.status == 400
        # Two lengths that differ leave the body's end ambiguous.
        with pytest.raises(HttpError) as err:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Content-Length: 5\r\n\r\nabcde"
            )
        assert err.value.status == 400
        agreeing = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
            b"Content-Length: 3\r\n\r\nabc"
        )
        assert agreeing.body == b"abc"

    def test_empty_body_json_is_400(self):
        req = parse(b"POST / HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400

    def test_garbage_body_json_is_400(self):
        req = parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{")
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400

    @pytest.mark.parametrize("body", [b"[" * 100_000, b"1" * 5000])
    def test_undecodable_body_json_is_400(self, body):
        """Nesting past the decoder's recursion limit, and an integer
        past Python's digit limit, are client errors, not crashes."""
        head = b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
        req = parse(head + body)
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400


class TestJsonResponse:
    def test_shape(self):
        raw = json_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Type: application/json" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: keep-alive" in lines
        assert json.loads(body) == {"ok": True}

    def test_close_and_extra_headers(self):
        raw = json_response(
            401,
            {"error": "no"},
            keep_alive=False,
            extra_headers=(("WWW-Authenticate", "Bearer"),),
        )
        head = raw.partition(b"\r\n\r\n")[0].decode()
        assert "HTTP/1.1 401 Unauthorized" in head
        assert "Connection: close" in head
        assert "WWW-Authenticate: Bearer" in head
