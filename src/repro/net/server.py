"""``repro.net`` server core — the async door onto a serving ``Session``.

Architecture
------------
One :class:`NetServer` owns, for its lifespan:

* a single-rank :class:`~repro.api.Session` and the
  :class:`~repro.serving.QueryEngine` built over it — living on a
  **dedicated single-thread executor**, so every engine operation
  (submit, flush, stats) is serialised onto one thread and the engine
  needs no locking of its own;
* an asyncio HTTP/1.1 server (:mod:`repro.net.http`, stdlib only)
  multiplexing client connections on the event loop;
* **group commit**, kept by the event loop.  The engine never flushes
  spontaneously (flushing is collective in the SPMD contract), so the
  server drives every flush.  An engine call dispatched to an idle
  engine (no flush in flight, no engine call queued or running) that is
  still the last call dispatched when it returns leads a group of one:
  it flushes on the engine thread before it returns, so a lone submit
  answers with its result.  Tickets submitted while the engine is busy
  ride the flush the loop posts as soon as the engine goes idle, and
  ``max_batch`` still caps a batch through the engine's watermark.  No
  query waits for ``max_batch - 1`` friends or for a timer;
  ``flush_deadline_ms`` is only an SLO, whose misses the engine counts
  in ``deadline_flushes``;
* a :class:`~repro.net.jobs.JobTable` mapping job ids to tickets, with
  asyncio events the long-poll handlers await — set by the loop after
  every engine call, never from the engine thread.

Endpoints (JSON in / JSON out)::

    POST /v1/query        {"basis", "kind", "payload", ["version"]}
                          -> 200 {"job", "status": "done", ...} (a cache
                                 hit, or flushed in the submit's own call)
                             202 {"job", "status": "pending"}  (queued
                                 behind a busy engine)
                             500 {"error", "job"} naming the cause,
                                 when the submit's own flush failed
    GET  /v1/jobs/{id}    ?wait=SECONDS long-polls until settled; a job
                          whose flush failed answers the same 500
    GET  /metrics         repro.obs registry + engine/tenant/job counters
    GET  /healthz         repro.health rank states and the
                          repro.errors.{net,health} counts; 503 when
                          degraded

A ``payload`` is nested lists of numbers, or ``{"npy": "<base64>"}``:
a base64 ``.npy`` file of ``<f8`` or ``<f4``, 1-D or 2-D, validated
before any array exists (:mod:`repro.net.codec`).  Both forms yield the
same float64 payload, so the same answer and the same result-cache
entry.  A job answers in the form its submit used: an array ``result``
is ``{"npy": ...}`` (float64) for an ``npy`` submit and nested lists
for a list submit; a ``reconstruction_error`` is a JSON number either
way.

``/v1/*`` requests are authenticated per tenant
(:class:`~repro.net.auth.TenantAuth`) when ``serving.tenants`` is
configured; jobs are tenant-isolated (a tenant polling another tenant's
job id gets 404, not 403 — existence is not leaked).  ``/metrics`` and
``/healthz`` stay open: they are operator probes, not tenant surface.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import logging
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..api import RunConfig, Session
from ..exceptions import (
    BasisNotFoundError,
    ConfigurationError,
    ServingError,
    ShapeError,
)
from ..obs import runtime as _obs
from .auth import TenantAuth
from .codec import decode_array, encode_array
from .http import (
    DEFAULT_MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    Request,
    json_response,
    read_request,
)
from .jobs import JobTable

__all__ = ["NetServer", "ServerHandle", "start_in_thread", "serve_forever"]

_log = logging.getLogger(__name__)

#: Long-poll ``?wait=`` is capped here so a client typo cannot pin a
#: handler for an hour.
MAX_WAIT_S = 30.0


class NetServer:
    """The asyncio HTTP serving frontend over one engine-owning session.

    Parameters
    ----------
    store:
        The :class:`~repro.serving.ModeBaseStore` (or ``None`` with a
        ``session`` whose engine uses in-memory bases) queries resolve
        against.
    config:
        A :class:`~repro.config.RunConfig`; its ``serving`` section
        supplies host/port/deadline/batch/cache/tenant knobs, its other
        sections configure the owned session (obs, health, ...).  The
        backend must be single-rank — the frontend broadcasts nothing,
        so a multi-rank engine would deadlock on its collectives.
    session:
        Adopt an existing (open, single-rank) session instead of owning
        one.  The caller keeps responsibility for closing it.
    """

    def __init__(
        self,
        store: Any,
        config: Optional[RunConfig] = None,
        *,
        session: Optional[Session] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        cfg = config if config is not None else RunConfig()
        if not isinstance(cfg, RunConfig):
            raise ConfigurationError(
                f"config must be a RunConfig, got {type(cfg).__name__}"
            )
        if session is None and cfg.backend.size > 1:
            raise ConfigurationError(
                f"repro.net serves from a single-rank Session; backend "
                f"{cfg.backend.name!r} has size {cfg.backend.size} — use "
                f"size=1 (queries fan out as batched GEMMs, not ranks)"
            )
        self._config = cfg
        self._scfg = cfg.serving
        self._store = store
        self._session = session
        self._owns_session = session is None
        self._max_body_bytes = max_body_bytes
        self._engine = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Group commit: engine calls queued or running and engine calls
        # ever dispatched (both written on the loop only), and the flush
        # in flight.
        self._engine_calls = 0
        self._dispatched = 0
        self._flush_task: Optional[asyncio.Task] = None
        self._flush_warned = False
        # Open client connections, closed by stop() so that no handler
        # outlives the server.
        self._connections: set[asyncio.StreamWriter] = set()
        self._auth = TenantAuth(self._scfg.tenants)
        self._jobs = JobTable()
        self._requests = 0
        self._errors = 0

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "NetServer":
        """Bind the listener and bring up session and engine."""
        if self._server is not None:
            raise ServingError("NetServer is already started")
        self._loop = asyncio.get_running_loop()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-net-engine"
        )

        def build():
            # Built on the engine thread so the session, its
            # communicator and the engine live where they are used.
            session = self._session
            if session is None:
                session = Session(self._config)
            engine = session.query_engine(
                self._store,
                flush_threshold=self._scfg.max_batch,
                flush_deadline_ms=self._scfg.flush_deadline_ms,
                result_cache_entries=self._scfg.result_cache_entries,
            )
            return session, engine

        try:
            self._session, self._engine = await self._loop.run_in_executor(
                self._executor, build
            )
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self._scfg.host,
                port=self._scfg.port,
                limit=MAX_HEADER_BYTES,
            )
        except BaseException:
            await self.stop()
            raise
        st = _obs.state()
        if st is not None and st.registry is not None:
            st.registry.gauge("repro.net.serving").set(1.0)
        return self

    async def stop(self) -> None:
        """Tear everything down in dependency order; idempotent."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            # An idle keep-alive client would hold wait_closed() (it waits
            # for every connection on Python >= 3.12.1) or leave its
            # handler to be cancelled at loop teardown: close each
            # connection, so its handler reads EOF and ends normally.
            for writer in list(self._connections):
                writer.close()
            await server.wait_closed()
        # Without an engine nothing posts a flush; a flush already on the
        # engine thread is awaited, not abandoned.
        session, engine = self._session, self._engine
        self._engine = None
        if self._flush_task is not None:
            await self._flush_task
        executor = self._executor
        if executor is not None:
            if self._owns_session and session is not None:
                self._session = None
                # Final flush answers still-queued tickets, then the
                # session releases its communicator — both on the engine
                # thread, like every other engine op.
                await self._flush(engine)
                await self._loop.run_in_executor(executor, session.close)
            self._executor = None
            executor.shutdown(wait=True)
        st = _obs.state()
        if st is not None and st.registry is not None:
            st.registry.gauge("repro.net.serving").set(0.0)

    # -- addressing --------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``serving.port = 0`` to the actual
        ephemeral port)."""
        if self._server is None:
            raise ServingError("NetServer is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._scfg.host

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- engine-thread plumbing --------------------------------------------
    async def _on_engine(self, fn, *args):
        engine = self._engine
        idle = self._flush_task is None and not self._engine_calls
        self._engine_calls += 1
        self._dispatched += 1
        try:
            return await self._loop.run_in_executor(
                self._executor, self._lead, engine, idle, self._dispatched, fn, *args
            )
        finally:
            self._engine_calls -= 1
            self._after_engine()

    def _lead(self, engine, idle: bool, seq: int, fn, *args):
        """Run ``fn`` on the engine thread.  A call dispatched to an idle
        engine that is still the last one dispatched when ``fn`` returns
        leads a group of one: it flushes what ``fn`` queued before it
        returns, so a lone submit answers with its result.

        ``_dispatched`` is written only on the loop and only grows, so a
        stale read here can only make this call flush although a newer
        call was just dispatched.  That newer call found the engine busy,
        so it never flushes itself; its ticket rides the flush
        :meth:`_after_engine` posts when it ends.  No ticket is stranded,
        and no lock is needed."""
        result = fn(*args)
        if idle and seq == self._dispatched and engine.pending:
            self._commit(engine)
        return result

    def _after_engine(self) -> None:
        """Wake the long-pollers whose tickets settled, and commit the
        group: once the engine is idle (no flush in flight, no engine call
        queued or running) with tickets queued, post one flush for all of
        them.  These are the tickets submitted while the engine was busy
        (a submit to an idle engine flushes itself, see :meth:`_lead`).
        Every engine call and every flush ends here, so the last one to
        finish posts it and no wake-up is lost."""
        self._jobs.signal_completed()
        engine = self._engine
        if (
            engine is None
            or self._flush_task is not None
            or self._engine_calls
            or not engine.pending
        ):
            return
        self._flush_task = self._loop.create_task(self._flush(engine))

    async def _flush(self, engine) -> None:
        """Flush every queued ticket on the engine thread, then look for
        the next group."""
        try:
            await self._loop.run_in_executor(self._executor, self._commit, engine)
        finally:
            self._flush_task = None
            self._after_engine()

    def _commit(self, engine) -> None:
        """Flush every queued ticket; engine thread only.  A failed flush
        has failed its own tickets, whose jobs answer 500; here it is
        counted in ``repro.errors.net`` and warned about once."""
        try:
            engine.flush()
        except Exception:  # noqa: BLE001 - the server carries on
            _obs.current_registry().counter("repro.errors.net").inc()
            if not self._flush_warned:
                self._flush_warned = True
                _log.warning(
                    "repro.net flush failed; its jobs answer 500 (later "
                    "failures are only counted in repro.errors.net)",
                    exc_info=True,
                )

    # -- connection handling -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self._max_body_bytes
                    )
                except HttpError as exc:
                    writer.write(
                        json_response(
                            exc.status,
                            {"error": exc.message},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload = await self._dispatch(request)
                writer.write(
                    json_response(
                        status, payload, keep_alive=request.keep_alive
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: Request) -> Tuple[int, Any]:
        """Route one request; exceptions become JSON error payloads."""
        self._requests += 1
        st = _obs.state()
        if st is not None and st.registry is not None:
            st.registry.counter("repro.net.requests").inc()
        tenant: Optional[str] = None
        try:
            if request.path == "/healthz":
                self._require_method(request, "GET")
                return await self._healthz()
            if request.path == "/metrics":
                self._require_method(request, "GET")
                return await self._metrics()
            if request.path == "/v1/query" or request.path.startswith(
                "/v1/jobs/"
            ):
                tenant = self._auth.authenticate(request.headers)
                if tenant is None:
                    return 401, {
                        "error": "missing or unknown API key (send "
                        "'Authorization: Bearer <key>' or 'X-API-Key')"
                    }
                self._auth.count(tenant, "requests")
                if request.path == "/v1/query":
                    self._require_method(request, "POST")
                    return await self._submit(tenant, request)
                self._require_method(request, "GET")
                return await self._job_status(
                    tenant, request, request.path[len("/v1/jobs/") :]
                )
            return 404, {"error": f"no route {request.path!r}"}
        except HttpError as exc:
            self._count_error(tenant)
            return exc.status, {"error": exc.message}
        except BasisNotFoundError as exc:
            self._count_error(tenant)
            return 404, {"error": str(exc)}
        except (ShapeError, ServingError, ConfigurationError) as exc:
            self._count_error(tenant)
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the server must answer
            self._count_error(tenant)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    @staticmethod
    def _require_method(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, f"{request.path} only accepts {method}"
            )

    def _count_error(self, tenant: Optional[str]) -> None:
        self._errors += 1
        if tenant is not None:
            self._auth.count(tenant, "errors")
        st = _obs.state()
        if st is not None and st.registry is not None:
            st.registry.counter("repro.net.errors").inc()

    # -- endpoints ---------------------------------------------------------
    async def _submit(self, tenant: str, request: Request) -> Tuple[int, Any]:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        basis = body.get("basis")
        if not isinstance(basis, str) or not basis:
            raise HttpError(400, "'basis' must be a non-empty string")
        kind = body.get("kind", "project")
        if not isinstance(kind, str):
            raise HttpError(400, "'kind' must be a string")
        version = body.get("version")
        # bool is an int subclass, but true is not version 1.
        if version is not None and (
            isinstance(version, bool) or not isinstance(version, int)
        ):
            raise HttpError(400, f"'version' must be an integer, got {version!r}")
        raw = body.get("payload")
        if raw is None:
            raise HttpError(
                400,
                "'payload' (nested lists of numbers, or {\"npy\": base64}) "
                "is required",
            )
        npy = isinstance(raw, dict)
        if npy:
            payload = decode_array(raw)
        else:
            try:
                payload = np.asarray(raw, dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise HttpError(400, f"'payload' is not numeric: {exc}")
        if not np.isfinite(payload).all():
            # json.loads accepts NaN and Infinity; no basis can answer
            # them, and their answers would not be valid JSON.
            raise HttpError(400, "'payload' must be finite (no NaN or Infinity)")
        ticket = await self._on_engine(
            self._engine.submit, kind, basis, payload, version
        )
        job = self._jobs.create(tenant, ticket, npy=npy)
        self._auth.count(tenant, "queries")
        # A result-cache hit, or a flush in this submit's own engine call
        # (see _lead), answers at submit.
        return self._job_reply(job, 200 if ticket.done else 202)

    async def _job_status(
        self, tenant: str, request: Request, job_id: str
    ) -> Tuple[int, Any]:
        if not job_id or "/" in job_id:
            raise HttpError(404, f"no route {request.path!r}")
        job = self._jobs.get(job_id)
        if job is None or job.tenant != tenant:
            # Tenant isolation: another tenant's job id answers exactly
            # like a nonexistent one.
            return 404, {"error": f"no job {job_id!r}"}
        wait = request.query_float("wait")
        if wait and not job.ticket.done:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    job.event.wait(), min(wait, MAX_WAIT_S)
                )
        return self._job_reply(job, 200)

    def _job_reply(self, job, status: int) -> Tuple[int, dict]:
        """``status`` with ``job``'s payload, or a 500 naming the job and
        the cause when the flush that held its ticket failed."""
        ticket = job.ticket
        payload = {
            "job": job.id,
            "status": "done" if ticket.done else "pending",
            "kind": ticket.kind,
            "basis": ticket.basis,
            "version": ticket.version,
        }
        if ticket.done:
            try:
                value = ticket.result()
            except ServingError as exc:
                # The flush that held this ticket failed: a server-side
                # fault, answered at once and naming its cause.
                self._count_error(job.tenant)
                return 500, {"error": f"job {job.id} failed: {exc}", "job": job.id}
            if isinstance(value, np.ndarray):
                value = encode_array(value) if job.npy else value.tolist()
            payload["result"] = value
            payload["degraded"] = ticket.degraded
            payload["cached"] = ticket.cached
        return status, payload

    async def _metrics(self) -> Tuple[int, Any]:
        engine_stats = await self._on_engine(self._engine.stats)
        return 200, {
            "registry": _obs.current_registry().snapshot(),
            "engine": engine_stats,
            "tenants": self._auth.snapshot(),
            "jobs": self._jobs.stats(),
            "server": {"requests": self._requests, "errors": self._errors},
        }

    async def _healthz(self) -> Tuple[int, Any]:
        def probe() -> Tuple[list, Dict[str, str], bool]:
            from ..health.daemon import communicator_world

            world, _ = communicator_world(self._session.comm)
            failed: list = []
            states: Dict[str, str] = {}
            if world is not None:
                failed = sorted(world.failed_ranks())
                monitor = getattr(world, "health", None)
                if monitor is not None:
                    states = {
                        str(rank): state
                        for rank, state in monitor.observe().items()
                    }
            return failed, states, bool(self._engine.shard_group_down)

        failed, states, shard_down = await self._on_engine(probe)
        registry = _obs.current_registry()
        unhealthy = bool(failed) or shard_down or any(
            state in ("suspect", "dead") for state in states.values()
        )
        payload = {
            "status": "degraded" if unhealthy else "ok",
            "ranks": states,
            "failed_ranks": failed,
            "shard_group_down": shard_down,
            "pending": self._jobs.stats()["pending"],
            # Failures the server and the health daemons carried on past:
            # counted whether or not observability is installed.
            "errors": {
                name: int(registry.counter(f"repro.errors.{name}").value)
                for name in ("net", "health")
            },
        }
        return (503 if unhealthy else 200), payload


async def _set_event(event: asyncio.Event) -> None:
    event.set()


class ServerHandle:
    """A running :class:`NetServer` on a background thread — what tests,
    benchmarks and examples drive.  Context-manageable; :meth:`stop` is
    idempotent."""

    def __init__(self, thread, loop, server, stop_event, failure) -> None:
        self._thread = thread
        self._loop = loop
        self.server = server
        self._stop_event = stop_event
        self._failure = failure
        self.url = server.url

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        thread, self._thread = self._thread, None
        if not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(_set_event(self._stop_event), self._loop)
        thread.join(timeout=timeout)
        if thread.is_alive():  # pragma: no cover - diagnostics only
            raise ServingError("repro.net server thread did not stop")
        if self._failure:
            raise self._failure[0]

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_in_thread(
    store: Any,
    config: Optional[RunConfig] = None,
    *,
    session: Optional[Session] = None,
    startup_timeout_s: float = 60.0,
) -> ServerHandle:
    """Start a :class:`NetServer` on a daemon thread and return its
    handle once the listener is bound (so ``handle.url`` is usable
    immediately; combine with ``serving.port = 0`` for tests)."""
    ready = threading.Event()
    state: Dict[str, Any] = {}
    failure: list = []

    def runner() -> None:
        async def main() -> None:
            server = NetServer(store, config, session=session)
            await server.start()
            stop_event = asyncio.Event()
            state.update(
                loop=asyncio.get_running_loop(),
                server=server,
                stop_event=stop_event,
            )
            ready.set()
            try:
                await stop_event.wait()
            finally:
                await server.stop()

        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failure.append(exc)
        finally:
            ready.set()

    thread = threading.Thread(
        target=runner, name="repro-net-server", daemon=True
    )
    thread.start()
    if not ready.wait(startup_timeout_s):
        raise ServingError(
            f"repro.net server did not start within {startup_timeout_s:g}s"
        )
    if failure:
        thread.join(timeout=5.0)
        raise failure[0]
    return ServerHandle(
        thread, state["loop"], state["server"], state["stop_event"], failure
    )


def serve_forever(
    store: Any,
    config: Optional[RunConfig] = None,
    *,
    announce=print,
) -> None:
    """Blocking serve loop — what ``repro serve`` runs.  Announces the
    bound address once listening; returns cleanly on Ctrl-C."""

    async def main() -> None:
        server = NetServer(store, config)
        await server.start()
        announce(f"repro.net serving on {server.url}")
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        announce("repro.net shutting down")
