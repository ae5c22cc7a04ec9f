"""A minimal blocking client for the ``repro.net`` HTTP API.

Built on :mod:`http.client` (stdlib, one keep-alive connection per
instance, **not** thread-safe — use one client per thread), this is the
reference consumer of the wire protocol: the end-to-end tests, the load
benchmark and the CI smoke all drive the server through it, so protocol
drift breaks loudly in one place.

Numeric ``np.ndarray`` payloads travel in the ``npy`` wire form
(:mod:`repro.net.codec`): base64 ``.npy`` inside the JSON body, float32
and float64 as they are and other real dtypes as float64.  The server
answers such a submit's array results in the same form, which
:meth:`ServingClient.result` reads back with ``allow_pickle=False``.
Any other payload is sent as nested lists, and answered in them.

>>> client = ServingClient("127.0.0.1", 8080, api_key="s3cret")
>>> job = client.submit("burgers", snapshots, kind="project")
>>> coeffs = client.result(job, wait=5.0)
"""

from __future__ import annotations

import base64
import http.client
import io
import json
from typing import Any, Optional

import numpy as np

from ..exceptions import ServingError
from .codec import encode_array

__all__ = ["ServingClient", "ServingHTTPError"]


class ServingHTTPError(ServingError):
    """A non-2xx answer from the serving frontend."""

    def __init__(self, status: int, payload: Any) -> None:
        detail = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class ServingClient:
    """One keep-alive connection to a :class:`~repro.net.NetServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.api_key = api_key
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    @classmethod
    def from_url(cls, url: str, **kwargs: Any) -> "ServingClient":
        """Construct from an ``http://host:port`` URL (what
        :attr:`~repro.net.ServerHandle.url` hands out)."""
        from urllib.parse import urlsplit

        split = urlsplit(url)
        if split.scheme != "http" or split.hostname is None:
            raise ServingError(f"expected an http://host:port URL, got {url!r}")
        return cls(split.hostname, split.port or 80, **kwargs)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- wire --------------------------------------------------------------
    def request(
        self, method: str, path: str, body: Any = None
    ) -> Any:
        """One round-trip; returns the decoded JSON payload, raising
        :class:`ServingHTTPError` on non-2xx statuses."""
        status, payload = self.request_raw(method, path, body)
        if not 200 <= status < 300:
            raise ServingHTTPError(status, payload)
        return payload

    def request_raw(self, method: str, path: str, body: Any = None):
        """Like :meth:`request` but returns ``(status, payload)`` without
        raising — what status-code tests assert on."""
        headers = {}
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        self._conn.request(method, path, body=data, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = raw.decode("latin-1")
        return response.status, payload

    # -- API ---------------------------------------------------------------
    def submit(
        self,
        basis: str,
        payload: Any,
        *,
        kind: str = "project",
        version: Optional[int] = None,
    ) -> dict:
        """``POST /v1/query``; returns the job payload (``"job"`` id and
        ``"status"``).  It is ``"done"``, with the result inline, on a
        result-cache hit or when the submit reached an idle server, which
        flushes a lone query in the submit's own engine call; it is
        ``"pending"`` when the query queued behind a busy engine.  A
        submit whose own flush failed raises :class:`ServingHTTPError`
        (status 500; its payload names the cause and the ``"job"``).  A
        numeric ndarray ``payload`` is sent in the ``npy`` form; a
        complex, string or object array keeps the list form, which no
        cast would preserve."""
        if isinstance(payload, np.ndarray):
            numeric = payload.dtype.kind in "biuf"
            payload = encode_array(payload) if numeric else payload.tolist()
        body = {"basis": basis, "kind": kind, "payload": payload}
        if version is not None:
            body["version"] = version
        return self.request("POST", "/v1/query", body)

    def job(self, job_id: str, *, wait: Optional[float] = None) -> dict:
        """``GET /v1/jobs/{id}``, long-polling up to ``wait`` seconds."""
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self.request("GET", path)

    def result(self, job: Any, *, wait: float = 30.0):
        """The answer of ``job`` (an id or a submit payload): a submit
        payload that is already ``"done"`` is read without a request,
        otherwise the job is long-polled until done.  Returns the value —
        arrays as ``np.ndarray``, reconstruction errors as ``float``.
        :class:`ServingError` if the job is still pending after
        ``wait``."""
        job_id = job["job"] if isinstance(job, dict) else job
        if isinstance(job, dict) and job.get("status") == "done":
            payload = job
        else:
            payload = self.job(job_id, wait=wait)
        if payload.get("status") != "done":
            raise ServingError(
                f"job {job_id} still pending after wait={wait:g}s"
            )
        value = payload["result"]
        if isinstance(value, dict):  # the npy form
            raw = base64.b64decode(value["npy"], validate=True)
            return np.load(io.BytesIO(raw), allow_pickle=False)
        return np.asarray(value) if isinstance(value, list) else value

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self.request("GET", "/metrics")

    def healthz(self):
        """``GET /healthz``; returns ``(status_code, payload)`` — 503 is
        a legitimate (degraded) answer, not an error."""
        return self.request_raw("GET", "/healthz")
