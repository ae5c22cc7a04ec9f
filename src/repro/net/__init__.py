"""``repro.net`` — the async multi-tenant HTTP serving frontend.

The network door onto :mod:`repro.serving`: an asyncio HTTP server
(stdlib only) whose lifespan owns a single-rank
:class:`~repro.api.Session` and its :class:`~repro.serving.QueryEngine`
on a dedicated executor thread, group commit (a submit that reaches an
idle engine flushes in its own engine call and answers with its result;
the event loop flushes the queries that arrive while the engine is busy
as soon as it goes idle; ``flush_deadline_ms`` is an SLO whose misses
the engine counts), per-tenant API-key auth, and job-table
long-polling.  Query arrays cross the wire as nested lists or as base64
``.npy`` (:mod:`repro.net.codec`).  Start it from the CLI (``repro
serve``), in-process on a background thread (:func:`start_in_thread` —
tests/benchmarks), or embedded in your own event loop
(:class:`NetServer`).

Configured by the ``serving`` section of
:class:`~repro.config.RunConfig` (:class:`~repro.config.ServingConfig`):
host/port, ``flush_deadline_ms``, ``max_batch``,
``result_cache_entries`` and the tenant key list.
"""

from .auth import PUBLIC_TENANT, TenantAuth
from .client import ServingClient, ServingHTTPError
from .http import HttpError, Request, json_response, read_request
from .jobs import Job, JobTable
from .server import NetServer, ServerHandle, serve_forever, start_in_thread

__all__ = [
    "HttpError",
    "Job",
    "JobTable",
    "NetServer",
    "PUBLIC_TENANT",
    "Request",
    "ServerHandle",
    "ServingClient",
    "ServingHTTPError",
    "TenantAuth",
    "json_response",
    "read_request",
    "serve_forever",
    "start_in_thread",
]
