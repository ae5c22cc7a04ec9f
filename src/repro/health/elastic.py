"""``ElasticSession`` — live mid-stream rescale without replay.

A single :class:`~repro.api.Session` refuses to host a multi-rank
``"threads"`` backend because each rank needs its own session object.
``ElasticSession`` is the one deliberate exception: it *owns* every rank
of an in-process world — the per-rank communicators, the per-rank
:class:`~repro.core.parallel.ParSVDParallel` drivers, and (with
``HealthConfig.enabled``) a :class:`~repro.health.monitor.HealthMonitor`
plus per-rank :class:`~repro.health.daemon.ProgressDaemon` threads.
Because the coordinator sees the *global* stream and all of the
distributed state at once, elasticity becomes a live property:

* :meth:`ElasticSession.rescale` drains the pending pipelined step,
  gathers the distributed factors **in memory** (no disk checkpoint),
  re-partitions the rows over a freshly built communicator at the new
  size, and resumes ``fit_stream`` exactly where it left off.
* A rank crash mid-batch (an injected fault, a
  :class:`~repro.smpi.exceptions.FailedRankError` from the health
  monitor's ``fail_rank`` escalation) triggers the same machinery as an
  in-place shrink: restore the last in-memory snapshot, rebuild one rank
  smaller, re-ingest the few batches held in the in-memory tail buffer.
  The *stream source* is never rewound — ``repro.recovery.
  replayed_batches`` stays zero — and each recovery is metered as
  ``repro.recovery.live_rescales``.

Snapshot protocol
-----------------
After every ``RestartPolicy.checkpoint_every`` ingested batches the
session drains in-flight steps and snapshots the gathered factors
(modes, singular values, counters).  Batches ingested since the snapshot
are kept in a bounded in-memory tail; a recovery restores the snapshot
and re-feeds the tail through the normal ingest path, so the recovered
trajectory is the exact batch sequence of an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

import numpy as np

from ..api import Session, SessionResult, checkpoint_run_config
from ..config import (
    BackendConfig,
    ObservabilityConfig,
    RestartPolicy,
    RunConfig,
    SolverConfig,
    StreamConfig,
)
from ..core.checkpoint import normalize_checkpoint_path, read_checkpoint
from ..core.parallel import ParSVDParallel
from ..exceptions import (
    CommunicatorError,
    ConfigurationError,
    DataFormatError,
    RescaleError,
)
from ..faults import runtime as _faults
from ..obs import runtime as _obs
from ..smpi.exceptions import FailedRankError
from ..smpi.factory import create_communicator
from ..utils.partition import block_partition
from .daemon import ProgressDaemon, communicator_world, record_failure
from .monitor import HealthMonitor

__all__ = ["ElasticSession"]

_log = logging.getLogger(__name__)


@dataclasses.dataclass
class _Snapshot:
    """In-memory recovery point: the gathered factorization state."""

    modes: np.ndarray  # global (n_dof, K), stacked in rank order
    singular_values: np.ndarray
    iteration: int
    n_seen: int


class ElasticSession(Session):
    """A multi-rank in-process session that can rescale mid-stream.

    Parameters
    ----------
    config:
        The :class:`~repro.config.RunConfig` to run.  The backend must be
        the in-process ``"threads"`` backend (any size) — live rescale
        needs every rank's state in one address space.
    policy:
        The :class:`~repro.config.RestartPolicy` governing recovery:
        ``checkpoint_every`` sets the in-memory snapshot period (in
        batches), ``max_restarts`` bounds live recoveries, ``min_size``
        floors the shrink.  Defaults to ``RestartPolicy(mode="live")``.
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
        cfg = config if config is not None else RunConfig()
        if not isinstance(cfg, RunConfig):
            raise ConfigurationError(
                f"config must be a RunConfig, got {type(cfg).__name__}"
            )
        sections = {
            key: value
            for key, value in (
                ("solver", solver),
                ("backend", backend),
                ("stream", stream),
                ("obs", obs),
            )
            if value is not None
        }
        if sections:
            cfg = cfg.replace(**sections)
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
        self._policy = policy
        self._obs_installed = False
        if cfg.obs.enabled:
            _obs.install(metrics=cfg.obs.metrics, trace=cfg.obs.trace)
            self._obs_installed = True
        self._faults_installed = False
        if cfg.faults.active:
            # One refcounted install for the whole elastic run: the
            # controller survives every internal rebuild, so fire-once
            # crash specs stay fired and the recovered stream runs clean.
            _faults.install(cfg.faults)
            self._faults_installed = True
        # Base-class plumbing the inherited helpers rely on.
        self._owns_comm = True
        self._health_daemon = None  # per-rank daemons live in _daemons
        self._comm: Any = None
        self._driver = None
        self._closed = False
        self._prefetch_streams = []
        self._auto_checkpoint = None
        # Elastic state.
        self._size = cfg.backend.size
        self._comms: Tuple[Any, ...] = ()
        self._drivers: List[ParSVDParallel] = []
        self._monitor: Optional[HealthMonitor] = None
        self._daemons: List[ProgressDaemon] = []
        self._snapshot: Optional[_Snapshot] = None
        self._tail: List[np.ndarray] = []
        self._queue: Deque[np.ndarray] = deque()
        self._n_dof: Optional[int] = None
        self._restarts = 0
        self._live_rescales = 0
        self._warned = False
        try:
            self._build(self._size)
        except BaseException:
            if self._obs_installed:
                self._obs_installed = False
                _obs.uninstall()
            if self._faults_installed:
                self._faults_installed = False
                _faults.uninstall()
            raise

    # -- world lifecycle ---------------------------------------------------
    def _build(
        self, size: int, restore: Optional[_Snapshot] = None
    ) -> None:
        """(Re)build the communicator world, drivers and health plumbing
        at ``size`` ranks, optionally restoring a gathered snapshot."""
        bcfg = self._config.backend
        comms = create_communicator(
            "threads",
            size,
            timeout=bcfg.timeout,
            irecv_buffer_bytes=bcfg.irecv_buffer_bytes,
        )
        if size == 1:
            comms = (comms,)
        self._comms = tuple(comms)
        self._comm = self._comms[0]
        self._size = size
        drivers: List[ParSVDParallel] = []
        for i, comm in enumerate(self._comms):
            driver = ParSVDParallel(comm, solver=self._config.solver)
            if restore is not None:
                # The in-memory twin of from_checkpoint's gathered-restart
                # path: each rank takes its canonical block_partition row
                # block of the snapshot's global modes.
                part = block_partition(restore.modes.shape[0], size)
                driver._ulocal = np.array(restore.modes[part.slice_of(i), :])
                driver._singular_values = np.array(
                    restore.singular_values, copy=True
                )
                driver._iteration = restore.iteration
                driver._n_seen = restore.n_seen
                driver._n_dof = driver._ulocal.shape[0]
                driver._invalidate_modes()
            drivers.append(driver)
        self._drivers = drivers
        self._monitor = None
        self._daemons = []
        hcfg = self._config.health
        if hcfg.enabled:
            world, _ = communicator_world(self._comms[0])
            if world is not None:
                self._monitor = HealthMonitor(world, hcfg)
            for i, (comm, driver) in enumerate(zip(self._comms, drivers)):
                world, world_rank = communicator_world(comm)
                daemon = ProgressDaemon(
                    hcfg.heartbeat_interval,
                    world=world,
                    world_rank=world_rank,
                    advance=driver.try_finalize_pending,
                    # One monitor per world is enough; rank 0's daemon
                    # runs it (fail_rank is idempotent anyway).
                    monitor=self._monitor if i == 0 else None,
                )
                self._daemons.append(daemon.start())

    def _teardown_workers(self, exc: Optional[BaseException]) -> None:
        """Discard the current world: stop daemons, abort in-flight
        steps, and (on a failure path) fail every old-world rank so any
        straggler thread blocked in an old mailbox wakes promptly."""
        daemons, self._daemons = self._daemons, []
        for daemon in daemons:
            daemon.stop(retire=True)
        drivers, self._drivers = self._drivers, []
        for driver in drivers:
            try:
                driver.abort_pending()
            except Exception:
                self._record_failure("aborting an in-flight step")
        world = None
        if self._comms:
            world, _ = communicator_world(self._comms[0])
        if world is not None and exc is not None:
            for rank in range(world.size):
                world.fail_rank(rank, exc)
        if world is not None:
            world.health = None
        self._monitor = None
        self._comms = ()
        self._comm = None

    def _record_failure(self, what: str) -> None:
        record_failure(_log, not self._warned, what)
        self._warned = True

    # -- SPMD fan-out ------------------------------------------------------
    def _spmd(self, fn: Callable[[int, ParSVDParallel], None]) -> None:
        """Run ``fn(rank, driver)`` once per rank, concurrently.

        Mirrors the SPMD executor's failure contract: a worker that dies
        with anything but :class:`FailedRankError` fails its rank in the
        world first, so peers blocked in collectives wake immediately.
        The most-causal error (the non-``FailedRankError`` one, when
        present) is re-raised to the coordinator.
        """
        size = self._size
        if size == 1:
            fn(0, self._drivers[0])
            return
        errors: List[Optional[BaseException]] = [None] * size

        def target(i: int) -> None:
            try:
                fn(i, self._drivers[i])
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                errors[i] = exc
                if not isinstance(exc, FailedRankError):
                    world, world_rank = communicator_world(self._comms[i])
                    if world is not None:
                        world.fail_rank(world_rank, exc)

        threads = [
            threading.Thread(
                target=target,
                args=(i,),
                name=f"repro-elastic-{i}",
                daemon=True,
            )
            for i in range(size)
        ]
        for thread in threads:
            thread.start()
        join_timeout = self._config.backend.timeout + 5.0
        for thread in threads:
            thread.join(timeout=join_timeout)
        if any(thread.is_alive() for thread in threads):
            raise RescaleError(
                f"elastic workers did not finish within {join_timeout:.0f}s "
                f"(a worker is stuck outside the communicator)"
            )
        root: Optional[BaseException] = None
        for exc in errors:
            if exc is not None and not isinstance(exc, FailedRankError):
                root = exc
                break
        if root is None:
            for exc in errors:
                if exc is not None:
                    root = exc
                    break
        if root is not None:
            raise root

    # -- ingest / snapshot / recovery --------------------------------------
    @property
    def _initialized(self) -> bool:
        return bool(self._drivers) and self._drivers[0].initialized

    def _partition(self):
        assert self._n_dof is not None
        return block_partition(self._n_dof, self._size)

    def _ingest_one(self, batch: np.ndarray) -> None:
        if self._n_dof is None:
            self._n_dof = int(batch.shape[0])
        elif batch.shape[0] != self._n_dof:
            raise ConfigurationError(
                f"batch has {batch.shape[0]} rows, stream declared "
                f"{self._n_dof}"
            )
        part = self._partition()

        def step(i: int, driver: ParSVDParallel) -> None:
            block = batch[part.slice_of(i), :]
            if driver.initialized:
                driver.incorporate_data(block)
            else:
                driver.initialize(block)

        self._spmd(step)
        self._tail.append(batch)
        every = max(int(self._policy.checkpoint_every), 1)
        if self._snapshot is None or len(self._tail) >= every:
            self._drain()
            self._take_snapshot()
            self._tail = []

    def _drain(self) -> None:
        """Finalize every rank's in-flight pipelined step (collective)."""
        if not any(driver.pending_update for driver in self._drivers):
            return
        self._spmd(lambda i, driver: driver._finalize_pending())

    def _take_snapshot(self) -> None:
        """Gather the distributed factors in memory (drained state)."""
        if not self._initialized:
            return
        driver0 = self._drivers[0]
        self._snapshot = _Snapshot(
            # vstack copies — the snapshot must not alias workspace
            # buffers the next step recycles.
            modes=np.vstack(
                [np.asarray(driver._ulocal) for driver in self._drivers]
            ),
            singular_values=np.array(driver0._singular_values, copy=True),
            iteration=int(driver0._iteration),
            n_seen=int(driver0._n_seen),
        )

    def _meter_rescale(self) -> None:
        self._live_rescales += 1
        st = _obs.state()
        if st is not None and st.registry is not None:
            st.registry.counter("repro.recovery.live_rescales").inc()

    def _recover(self, exc: BaseException) -> None:
        """In-place shrink: restore the snapshot one rank smaller and
        queue the tail batches for re-ingest (no stream replay)."""
        self._restarts += 1
        if self._restarts > self._policy.max_restarts:
            raise exc
        new_size = self._size
        if new_size > self._policy.min_size:
            new_size -= 1
        tail, self._tail = self._tail, []
        # The batch that failed mid-ingest is still at the queue head; if
        # the failure hit the post-ingest drain it is *also* the last tail
        # entry — drop the duplicate.
        if tail and self._queue and tail[-1] is self._queue[0]:
            tail.pop()
        self._queue.extendleft(reversed(tail))
        self._teardown_workers(exc)
        self._build(new_size, restore=self._snapshot)
        self._meter_rescale()

    def _pump(self) -> None:
        """Ingest every queued batch, recovering live on failure."""
        while self._queue:
            batch = self._queue[0]
            try:
                self._ingest_one(batch)
            except CommunicatorError as exc:
                self._recover(exc)
                continue
            self._queue.popleft()

    def _sync(self) -> None:
        """Drain queue and in-flight steps, recovering live on failure."""
        while True:
            self._pump()
            try:
                self._drain()
                return
            except CommunicatorError as exc:
                self._recover(exc)

    # -- public surface ----------------------------------------------------
    @property
    def size(self) -> int:
        """Current rank count (changes across rescales)."""
        return self._size

    @property
    def live_rescales(self) -> int:
        """How many times this session rebuilt its world in place."""
        return self._live_rescales

    @property
    def driver(self) -> ParSVDParallel:
        """Rank 0's driver (read-only convenience — counters, config)."""
        self._require_open()
        return self._drivers[0]

    def rescale(self, new_size: int) -> "ElasticSession":
        """Rebuild the world at ``new_size`` ranks, mid-stream.

        Drains the pending pipelined step, gathers the distributed
        factors in memory, re-partitions the rows and resumes exactly
        where the stream left off — bit-identical to a fixed-size run.
        Metered as ``repro.recovery.live_rescales``.
        """
        self._require_open()
        if not isinstance(new_size, int) or isinstance(new_size, bool):
            raise RescaleError(
                f"new_size must be an int >= 1, got {new_size!r}"
            )
        if new_size < 1:
            raise RescaleError(
                f"new_size must be an int >= 1, got {new_size!r}"
            )
        if new_size == self._size:
            return self
        if self._initialized:
            self._sync()
            self._take_snapshot()
            self._tail = []
        self._teardown_workers(None)
        self._build(new_size, restore=self._snapshot)
        self._meter_rescale()
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
        stream = self._resolve_stream(source, False)
        got_any = self._initialized
        try:
            for batch in stream:
                # Own the memory: the tail buffer must survive source
                # reuse and workspace recycling across rescales.
                self._queue.append(np.array(batch, copy=True))
                self._pump()
                got_any = True
        except BaseException:
            from ..data.streams import PrefetchStream

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
        self._queue.append(np.array(batch, copy=True))
        self._pump()
        return self

    def result(self) -> SessionResult:
        """Assemble and return the current *global* factorization."""
        self._require_open()
        if not self._initialized:
            raise ConfigurationError(
                "this Session has not ingested any data yet; call "
                "fit_stream()/initialize() (or ElasticSession.resume) first"
            )
        while True:
            self._sync()
            try:
                if self._config.solver.gather == "none":
                    modes: Optional[np.ndarray] = np.vstack(
                        [driver.local_modes for driver in self._drivers]
                    )
                else:
                    assembled: List[Optional[np.ndarray]] = [None] * self._size

                    def step(i: int, driver: ParSVDParallel) -> None:
                        assembled[i] = driver.assemble_modes()

                    self._spmd(step)
                    modes = assembled[0]
                driver0 = self._drivers[0]
                return SessionResult(
                    modes=modes,
                    singular_values=np.array(
                        driver0.singular_values, copy=True
                    ),
                    iteration=driver0.iteration,
                    n_seen=driver0.n_seen,
                )
            except CommunicatorError as exc:
                self._recover(exc)

    @property
    def modes(self) -> np.ndarray:
        """Global modes (drains in-flight steps; recovers live)."""
        modes = self.result().modes
        assert modes is not None
        return modes

    @property
    def singular_values(self) -> np.ndarray:
        """Current singular values (drains in-flight steps)."""
        return self.result().singular_values

    def save_checkpoint(self, path, gathered: bool = False) -> str:
        """Checkpoint the streaming state (all ranks write/participate)."""
        self._require_open()
        if not self._initialized:
            raise ConfigurationError(
                "this Session has not ingested any data yet; call "
                "fit_stream()/initialize() (or ElasticSession.resume) first"
            )
        self._sync()
        written: List[Optional[str]] = [None] * self._size

        def step(i: int, driver: ParSVDParallel) -> None:
            written[i] = driver.save_checkpoint(
                path, gathered=gathered, run_config=self._config
            )

        self._spmd(step)
        assert written[0] is not None
        return written[0]

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
        """Reopen a **gathered** checkpoint as a live elastic session
        (restarts at any rank count, like the gathered restart path)."""
        if comm is not None:
            raise ConfigurationError(
                "ElasticSession owns its whole world; adopting a single "
                "rank's communicator is a per-rank Session concern"
            )
        cfg = config if config is not None else checkpoint_run_config(path)
        if backend is not None:
            cfg = cfg.replace(backend=backend)
        state = read_checkpoint(normalize_checkpoint_path(path))
        if state["kind"] != "gathered":
            raise DataFormatError(
                f"{path}: elastic resume needs a gathered checkpoint "
                f"(kind={state['kind']!r}); write one with "
                f"save_checkpoint(..., gathered=True)"
            )
        session = cls(cfg, policy=policy)
        snapshot = _Snapshot(
            modes=np.asarray(state["modes"]),
            singular_values=np.asarray(state["singular_values"]),
            iteration=int(state["iteration"]),
            n_seen=int(state["n_seen"]),
        )
        session._snapshot = snapshot
        session._n_dof = int(snapshot.modes.shape[0])
        session._teardown_workers(None)
        session._build(session._size, restore=snapshot)
        return session

    def close(self, *, drop_pending: bool = False) -> None:
        """End the session: drain (or abort) in-flight steps, stop the
        health daemons, retire the ranks, release the world."""
        if self._closed:
            return
        self._closed = True
        streams, self._prefetch_streams = self._prefetch_streams, []
        try:
            if not drop_pending and self._drivers:
                try:
                    self._drain()
                except Exception:
                    self._record_failure("draining at close (pending steps dropped)")
                    drop_pending = True
        finally:
            self._teardown_workers(None)
            if drop_pending:
                for stream in streams:
                    stream.abort()
            if self._obs_installed:
                self._obs_installed = False
                _obs.uninstall()
            if self._faults_installed:
                self._faults_installed = False
                _faults.uninstall()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "fitted" if self._initialized else "fresh"
        )
        return (
            f"ElasticSession(size={self._size}, "
            f"K={self._config.solver.K}, "
            f"live_rescales={self._live_rescales}, {state})"
        )
