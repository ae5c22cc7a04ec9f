"""Minimal HTTP/1.1 framing over asyncio streams — stdlib only.

The serving frontend (:mod:`repro.net.server`) deliberately takes no web
framework dependency: its protocol needs are one request shape (JSON in,
JSON out, keep-alive) and its traffic is machine-generated, so a small,
strict parser beats a new hard dependency.  This module is that parser:
:func:`read_request` frames one request off a stream (returning ``None``
on a clean EOF between requests), :func:`json_response` serialises one
response.  Anything outside the strict subset — chunked bodies, HTTP/0.9,
oversized headers — is rejected with the appropriate 4xx/5xx via
:class:`HttpError`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "json_response",
    "STATUS_PHRASES",
]

#: Reason phrases for the statuses the frontend emits.
STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Hard caps: machine clients submitting query payloads, not browsers.
MAX_HEADER_BYTES = 32 * 1024
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024


class HttpError(Exception):
    """A malformed or unserviceable request, carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclasses.dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> Any:
        """The body decoded as JSON; :class:`HttpError` 400 on garbage,
        on nesting too deep to decode, and on integers too long to read."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            return json.loads(self.body.decode("utf-8"))
        except RecursionError:
            raise HttpError(400, "request body is nested too deeply")
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # int() digit limit an over-long number literal hits.
        except ValueError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    def query_float(self, name: str) -> Optional[float]:
        """A float query parameter, or ``None`` when absent."""
        raw = self.query.get(name)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name}={raw!r} is not a number")
        if not value >= 0.0:
            raise HttpError(400, f"query parameter {name} must be >= 0, got {raw}")
        return value


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Optional[Request]:
    """Frame one request; ``None`` on EOF before any byte (keep-alive
    connection closed cleanly between requests)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise HttpError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value
    if headers.get("transfer-encoding"):
        raise HttpError(501, "chunked request bodies are not supported")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        # Digits only: int() would also take "+5", " 5" and "1_0".
        if not (length.isascii() and length.isdigit()):
            raise HttpError(400, f"bad Content-Length {length!r}")
        n = int(length)
        if n > max_body_bytes:
            raise HttpError(413, f"request body exceeds {max_body_bytes} bytes")
        try:
            body = await reader.readexactly(n)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed mid-body")
    try:
        split = urlsplit(target)
    except ValueError:  # e.g. an unclosed "[" read as an IPv6 host
        raise HttpError(400, f"malformed request target {target!r}")
    query = {
        key: values[-1]
        for key, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }
    return Request(
        method=method,
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


def json_response(
    status: int,
    payload: Any,
    *,
    keep_alive: bool = True,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """Serialise one JSON response (status line + headers + body)."""
    body = (json.dumps(payload) + "\n").encode("utf-8")
    phrase = STATUS_PHRASES.get(status, "Unknown")
    headers = [
        f"HTTP/1.1 {status} {phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    headers.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
