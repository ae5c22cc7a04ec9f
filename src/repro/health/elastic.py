"""``ElasticSession`` — live mid-stream rescale without replay.

A single :class:`~repro.api.Session` is one rank of a fixed-size world.
``ElasticSession`` owns a whole in-process ``"threads"`` world instead:
it drives one :class:`~repro.api.Session` per rank (each with its own
driver and, with ``HealthConfig.enabled``, its own progress daemon and
the world's :class:`~repro.health.monitor.HealthMonitor`) through
:func:`~repro.smpi.executor.fan_out`, and it sees the *global* stream.
Elasticity then becomes a live property:

* :meth:`ElasticSession.rescale` captures a gathered snapshot of the
  distributed factors, rebuilds the world at the new size from it,
  re-partitions the rows and resumes ``fit_stream`` exactly where it
  left off.
* A rank failure mid-batch (an injected fault, a
  :class:`~repro.smpi.exceptions.FailedRankError` from the health
  monitor's ``fail_rank`` escalation) is recovered by the same
  :class:`~repro.api.Recovery` that ``Session.run`` uses, in its live
  mode: the world is rebuilt one rank smaller from the latest snapshot
  and the batches ingested since that snapshot are re-fed from an
  in-memory tail.  The *stream source* is never rewound —
  ``repro.recovery.replayed_batches`` stays zero — and each rebuild is
  metered as ``repro.recovery.live_rescales``.

The snapshot is captured every ``RestartPolicy.checkpoint_every``
ingested batches, so the recovered trajectory is the exact batch
sequence of an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import deque
from typing import Any, Callable, Deque, List, Optional

import numpy as np

from ..api import (
    Recovery,
    Session,
    SessionResult,
    checkpoint_run_config,
    open_stream,
    resolve_config,
)
from ..config import (
    BackendConfig,
    ObservabilityConfig,
    RestartPolicy,
    RunConfig,
    SolverConfig,
    StreamConfig,
)
from ..core.checkpoint import Snapshot
from ..core.parallel import ParSVDParallel
from ..data.streams import PrefetchStream
from ..exceptions import CommunicatorError, ConfigurationError, RescaleError
from ..obs import runtime as _obs
from ..smpi.executor import ParallelFailure, fan_out
from ..smpi.factory import create_communicator
from ..utils.partition import block_partition
from .daemon import communicator_world, record_failure

__all__ = ["ElasticSession"]

_log = logging.getLogger(__name__)


class ElasticSession:
    """A multi-rank in-process session that can rescale mid-stream.

    Parameters
    ----------
    config:
        The :class:`~repro.config.RunConfig` to run.  The backend must be
        the in-process ``"threads"`` backend (any size) — live rescale
        needs every rank's state in one address space.
    policy:
        The :class:`~repro.config.RestartPolicy` governing recovery, run
        in its live mode: ``checkpoint_every`` sets the snapshot period
        (in batches), ``max_restarts`` bounds live recoveries,
        ``min_size`` floors the shrink, ``checkpoint_path`` (optional)
        also keeps the snapshot on disk.  Defaults to
        ``RestartPolicy(mode="live")``.
    solver, backend, stream, obs:
        Section shortcuts, as on :class:`~repro.api.Session`.

    Notes
    -----
    ``fit_stream`` consumes the **global** source once (``partition=True``
    semantics are built in: each rank ingests its canonical
    :func:`~repro.utils.partition.block_partition` row block, re-derived
    after every rescale).  :meth:`result` always returns the *global*
    modes — the session owns all ranks, so there is no rank-local view.
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        *,
        policy: Optional[RestartPolicy] = None,
        solver: Optional[SolverConfig] = None,
        backend: Optional[BackendConfig] = None,
        stream: Optional[StreamConfig] = None,
        obs: Optional[ObservabilityConfig] = None,
    ) -> None:
        cfg = resolve_config(
            config, solver=solver, backend=backend, stream=stream, obs=obs
        )
        if cfg.backend.name != "threads":
            raise ConfigurationError(
                f"ElasticSession runs on the in-process 'threads' backend "
                f"(live rescale rebuilds the world in this address space); "
                f"got backend {cfg.backend.name!r}"
            )
        if policy is None:
            policy = RestartPolicy(mode="live")
        elif not isinstance(policy, RestartPolicy):
            raise ConfigurationError(
                f"policy must be a RestartPolicy, got {type(policy).__name__}"
            )
        self._config = cfg
        self._recovery = Recovery(cfg, policy.replace(mode="live"))
        self._sessions: List[Session] = []
        self._world: Any = None
        # Global batches not yet ingested, and those ingested since the
        # snapshot the tail continues (_tail_base): a recovery re-feeds
        # the tail instead of rewinding the source.
        self._queue: Deque[np.ndarray] = deque()
        self._tail: List[np.ndarray] = []
        self._tail_base: Optional[Snapshot] = None
        self._rows: Optional[int] = None
        self._closed = False
        self._warned = False
        try:
            self._build()
        except BaseException:
            self._recovery.close()
            raise

    # -- world lifecycle ---------------------------------------------------
    def _build(self) -> None:
        """Build the world at the recovery's size, every rank's session
        restored from the latest snapshot (fresh without one)."""
        recovery = self._recovery
        bcfg = self._config.backend
        comms = create_communicator(
            "threads",
            recovery.size,
            timeout=bcfg.timeout,
            irecv_buffer_bytes=bcfg.irecv_buffer_bytes,
        )
        if recovery.size == 1:
            comms = (comms,)
        sessions: List[Session] = []
        try:
            for comm in comms:
                sessions.append(recovery.open(comm))
        except BaseException:
            for session in sessions:
                session.close(drop_pending=True)
            raise
        self._sessions = sessions
        self._world, _ = communicator_world(comms[0])
        self._tail_base = recovery.snapshot

    def _teardown(self, exc: Optional[BaseException]) -> None:
        """Discard the current world: close every rank's session (its
        daemon stopped, the rank retired) and, on a failure path, fail
        every old-world rank so a straggler blocked in an old mailbox
        wakes promptly."""
        sessions, self._sessions = self._sessions, []
        for session in sessions:
            try:
                session.close(drop_pending=True)
            except Exception:
                self._record_failure("closing a rank's session")
        world, self._world = self._world, None
        if exc is not None and world is not None:
            for rank in range(world.size):
                world.fail_rank(rank, exc)

    def _record_failure(self, what: str) -> None:
        record_failure(_log, not self._warned, what)
        self._warned = True

    def _fan_out(self, fn: Callable[[Session], Any]) -> List[Any]:
        """Run ``fn(session)`` on every rank concurrently; a failure
        re-raises its root cause."""
        sessions = self._sessions
        try:
            return fan_out(
                self._world,
                len(sessions),
                lambda rank: fn(sessions[rank]),
                timeout=self._config.backend.timeout,
            )
        except ParallelFailure as exc:
            raise exc.root_cause from None

    # -- ingest / snapshot / recovery --------------------------------------
    @property
    def _initialized(self) -> bool:
        return bool(self._sessions) and self._sessions[0].driver.initialized

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("this Session is closed")

    def _require_fitted(self) -> None:
        self._require_open()
        if not self._initialized:
            raise ConfigurationError(
                "this Session has not ingested any data yet; call "
                "fit_stream()/initialize() (or ElasticSession.resume) first"
            )

    def _enqueue(self, batch: np.ndarray) -> None:
        # Own the memory: the tail must survive source reuse.
        batch = np.array(batch, copy=True)
        if self._rows is None:
            self._rows = int(batch.shape[0])
        elif batch.shape[0] != self._rows:
            raise ConfigurationError(
                f"batch has {batch.shape[0]} rows, stream declared "
                f"{self._rows}"
            )
        self._queue.append(batch)

    def _ingest(self, batch: np.ndarray) -> None:
        part = block_partition(batch.shape[0], len(self._sessions))

        def step(session: Session) -> None:
            block = batch[part.slice_of(session.comm.rank), :]
            if session.driver.initialized:
                session.incorporate_data(block)
            else:
                session.initialize(block)

        self._fan_out(step)

    def _capture(self) -> None:
        """Take the snapshot (collective) and start a fresh tail."""
        self._fan_out(self._recovery.capture)
        self._tail, self._tail_base = [], self._recovery.snapshot

    def _recover(self, exc: BaseException) -> None:
        """Live recovery: rebuild the world from the latest snapshot and
        queue the tail for re-ingest (no stream replay)."""
        if not self._recovery.retry(exc):
            raise exc
        tail, self._tail = self._tail, []
        if self._recovery.snapshot is not self._tail_base:
            # A capture that failed after rank 0 kept its snapshot: that
            # snapshot already covers the whole tail.
            tail = []
        self._queue.extendleft(reversed(tail))
        self._teardown(exc)
        self._build()

    def _pump(self) -> None:
        """Ingest every queued batch, recovering live on failure."""
        every = self._recovery.policy.checkpoint_every
        while self._queue:
            try:
                self._ingest(self._queue[0])
                self._tail.append(self._queue.popleft())
                if self._tail_base is None or len(self._tail) >= every:
                    self._capture()
            except CommunicatorError as exc:
                self._recover(exc)

    def _run(self, action: Callable[[], Any]) -> Any:
        """Drain the queue, then ``action()``; a rank failure rebuilds
        the world and runs it again."""
        while True:
            self._pump()
            try:
                return action()
            except CommunicatorError as exc:
                self._recover(exc)

    def _on_every_rank(self, fn: Callable[[Session], Any]) -> List[Any]:
        """``fn(session)`` on every rank of the drained world."""
        self._require_fitted()
        return self._run(lambda: self._fan_out(fn))

    # -- public surface ----------------------------------------------------
    def __enter__(self) -> "ElasticSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def config(self) -> RunConfig:
        """The typed run configuration (the starting world size)."""
        return self._config

    @property
    def size(self) -> int:
        """Current rank count (changes across rescales)."""
        return self._recovery.size

    @property
    def live_rescales(self) -> int:
        """How many times this session rebuilt its world in place."""
        return self._recovery.rebuilds

    @property
    def driver(self) -> ParSVDParallel:
        """Rank 0's driver (read-only convenience — counters, config)."""
        self._require_open()
        return self._sessions[0].driver

    def rescale(self, new_size: int) -> "ElasticSession":
        """Rebuild the world at ``new_size`` ranks, mid-stream.

        Captures the distributed factors in a gathered snapshot,
        re-partitions the rows and resumes exactly where the stream left
        off — bit-identical to a fixed-size run.  Metered as
        ``repro.recovery.live_rescales``.
        """
        self._require_open()
        if (
            not isinstance(new_size, int)
            or isinstance(new_size, bool)
            or new_size < 1
        ):
            raise RescaleError(
                f"new_size must be an int >= 1, got {new_size!r}"
            )
        if new_size == self.size:
            return self
        if self._initialized:
            self._run(self._capture)
        self._teardown(None)
        self._recovery.rebuilt(new_size)
        self._build()
        return self

    def fit_stream(
        self,
        source: Any = None,
        *,
        partition: bool = True,
        replay: Optional[bool] = None,
    ) -> "ElasticSession":
        """Stream a **global** source through all ranks.

        ``partition`` must stay ``True`` — the coordinator owns the global
        view and row-partitions each batch itself (re-deriving the blocks
        after every rescale).  ``replay`` is ignored: recovery re-ingests
        from the in-memory tail buffer, never from the source.
        """
        self._require_open()
        if not partition:
            raise ConfigurationError(
                "ElasticSession ingests global sources; partition=False "
                "(rank-local batches) requires per-rank sessions "
                "(Session.run)"
            )
        scfg = self._config.stream
        stream = open_stream(scfg, source)
        if scfg.prefetch > 0:
            stream = PrefetchStream(stream, depth=scfg.prefetch)
        got_any = self._initialized
        try:
            for batch in stream:
                self._enqueue(batch)
                self._pump()
                got_any = True
        except BaseException:
            if isinstance(stream, PrefetchStream):
                stream.abort()
            raise
        if not got_any:
            raise ConfigurationError(
                "fit_stream received an empty batch stream"
            )
        return self

    def initialize(self, batch: np.ndarray) -> "ElasticSession":
        """Manual stepping: ingest the first *global* batch."""
        return self.incorporate_data(batch)

    def incorporate_data(self, batch: np.ndarray) -> "ElasticSession":
        """Manual stepping: ingest one more *global* batch."""
        self._require_open()
        self._enqueue(batch)
        self._pump()
        return self

    def result(self) -> SessionResult:
        """Assemble and return the current *global* factorization."""
        results = self._on_every_rank(Session.result)
        if self._config.solver.gather == "none":
            modes = np.vstack([result.modes for result in results])
            return dataclasses.replace(results[0], modes=modes)
        return results[0]

    @property
    def modes(self) -> np.ndarray:
        """Global modes (recovers live)."""
        modes = self.result().modes
        assert modes is not None
        return modes

    @property
    def singular_values(self) -> np.ndarray:
        """Current singular values (recovers live)."""
        return self.result().singular_values

    @property
    def metrics(self) -> dict:
        """Snapshot of the metrics registry (see :attr:`Session.metrics
        <repro.api.Session.metrics>`)."""
        return _obs.current_registry().snapshot()

    def dump_trace(self, path) -> str:
        """Write the span timeline as Chrome-trace JSON (see
        :meth:`Session.dump_trace <repro.api.Session.dump_trace>`)."""
        _obs.current_tracer().write_chrome_trace(path)
        return str(path)

    def save_checkpoint(self, path, gathered: bool = False) -> str:
        """Checkpoint the streaming state (all ranks write/participate)."""
        return self._on_every_rank(
            lambda session: session.save_checkpoint(path, gathered)
        )[0]

    def export_to_store(self, store: Any, name: str) -> int:
        """Publish the current global basis into a serving
        :class:`~repro.serving.ModeBaseStore`; returns its version."""
        return self._on_every_rank(
            lambda session: session.export_to_store(store, name)
        )[0]

    @classmethod
    def resume(
        cls,
        path,
        *,
        comm: Any = None,
        config: Optional[RunConfig] = None,
        backend: Optional[BackendConfig] = None,
        policy: Optional[RestartPolicy] = None,
    ) -> "ElasticSession":
        """Reopen a checkpoint as a live elastic session: a gathered one
        at any rank count, a shard family at its own."""
        if comm is not None:
            raise ConfigurationError(
                "ElasticSession owns its whole world; adopting a single "
                "rank's communicator is a per-rank Session concern"
            )
        cfg = config if config is not None else checkpoint_run_config(path)
        if backend is not None:
            cfg = cfg.replace(backend=backend)
        session = cls(cfg, policy=policy)
        session._teardown(None)
        session._recovery.resume = path
        try:
            session._build()
        except BaseException:
            session.close()
            raise
        return session

    def close(self) -> None:
        """End the session: stop the health daemons, retire the ranks,
        release the world."""
        if self._closed:
            return
        self._closed = True
        try:
            self._teardown(None)
        finally:
            self._recovery.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "fitted" if self._initialized else "fresh"
        )
        return (
            f"ElasticSession(size={self.size}, "
            f"K={self._config.solver.K}, "
            f"live_rescales={self.live_rescales}, {state})"
        )
