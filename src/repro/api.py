"""``repro.api`` — the one public entry point for every SVD driver.

Four layers of this reproduction accreted their own construction idioms
(communicator factories, driver kwargs, prefetch wiring, checkpoint and
serving plumbing).  This module is the stable, typed boundary over all of
them:

* :class:`~repro.config.RunConfig` — one frozen, validated value
  describing a whole run: the algorithm (:class:`~repro.config.
  SolverConfig`), the communicator substrate (:class:`~repro.config.
  BackendConfig`) and the batch source (:class:`~repro.config.
  StreamConfig`).  Round-trips through JSON, embeds into checkpoints.
* :class:`Session` — a context manager that owns the communicator
  lifecycle, builds the driver, wires prefetch and partitioning, and
  exposes the whole workflow: :meth:`~Session.fit_stream`,
  :meth:`~Session.result`, :meth:`~Session.save_checkpoint`,
  :meth:`~Session.export_to_store`, :meth:`~Session.query_engine`, and
  :meth:`~Session.resume`.

Quickstart — stream a matrix on 4 in-process ranks::

    from repro.api import BackendConfig, RunConfig, Session, SolverConfig, StreamConfig

    cfg = RunConfig(
        solver=SolverConfig(K=10, ff=0.95),
        backend=BackendConfig(name="threads", size=4),
        stream=StreamConfig(batch=100),
    )

    def job(session):
        session.fit_stream(data)           # rows partitioned per rank
        return session.result()

    results = Session.run(cfg, job)        # rank-ordered SessionResults
    modes = results[0].modes

Single-rank sessions (``backend="self"``, or any backend of size 1) can
be used directly as context managers::

    with Session(cfg) as session:
        session.fit_stream(data)
        res = session.result()

and under a real MPI launcher each process adopts its own communicator::

    with Session(cfg, comm=create_communicator("mpi4py")) as session:
        ...
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
import time
from typing import Any, Callable, Iterable, List, Optional, Union

import numpy as np

from .config import (
    BackendConfig,
    FaultConfig,
    FaultSpec,
    HealthConfig,
    ObservabilityConfig,
    RestartPolicy,
    RunConfig,
    ServingConfig,
    SolverConfig,
    StreamConfig,
    TenantSpec,
)
from .core.checkpoint import (
    Snapshot,
    normalize_checkpoint_path,
    rank_checkpoint_path,
    read_checkpoint,
)
from .core.parallel import ParSVDParallel
from .data.streams import PrefetchStream, SnapshotStream, array_stream, dataset_stream
from .exceptions import CommunicatorError, ConfigurationError, DataFormatError
from .faults import runtime as _faults
from .faults.controller import FaultController
from .obs import runtime as _obs
from .smpi.executor import ParallelFailure
from .smpi.factory import create_communicator, run_backend
from .smpi.intercept import wrap_communicator
from .utils.partition import block_partition

__all__ = [
    "BackendConfig",
    "FaultConfig",
    "FaultSpec",
    "HealthConfig",
    "ObservabilityConfig",
    "RestartPolicy",
    "RunConfig",
    "ServingConfig",
    "Session",
    "SessionResult",
    "SolverConfig",
    "StreamConfig",
    "TenantSpec",
    "checkpoint_run_config",
    "load_run_config",
]

PathLike = Union[str, pathlib.Path]


def load_run_config(path: PathLike) -> RunConfig:
    """Load and validate a :class:`RunConfig` JSON file.

    Raises :class:`~repro.exceptions.ConfigurationError` naming the
    offending section/key on any mismatch — what ``repro config
    validate`` surfaces.
    """
    return RunConfig.load(path)


def checkpoint_run_config(path: PathLike) -> RunConfig:
    """The :class:`RunConfig` a checkpoint resumes under.

    Prefers the typed config embedded by the :class:`Session` layer
    (``run_config`` payload, any kind); for a checkpoint written through
    the legacy driver API it is reconstructed from the recorded solver
    fields, with the default backend at the checkpoint's rank count.
    Accepts the same ``path`` spellings as
    :meth:`~repro.core.parallel.ParSVDParallel.from_checkpoint`
    (a gathered single file or the per-rank shard family's base path).
    """
    candidates = [normalize_checkpoint_path(path), rank_checkpoint_path(path, 0)]
    state = None
    errors = []
    for candidate in candidates:
        if not candidate.exists():
            continue
        try:
            state = read_checkpoint(candidate, load_arrays=False)
            break
        except DataFormatError as exc:
            errors.append(str(exc))
    if state is None:
        detail = f" ({'; '.join(errors)})" if errors else ""
        raise DataFormatError(
            f"{path}: no readable checkpoint at "
            f"{' or '.join(str(c) for c in candidates)}{detail}"
        )
    if state["run_config"] is not None:
        return state["run_config"]
    # Legacy checkpoint: the same flat-field reconstruction the driver's
    # own restart path uses (one shared helper, no drift between them).
    solver = ParSVDParallel._restored_solver(state)
    nranks = max(int(state["nranks"]), 1)
    return RunConfig(solver=solver, backend=BackendConfig(size=nranks))


def resolve_config(config: Optional[RunConfig], **sections: Any) -> RunConfig:
    """``config`` (default: all defaults) with every non-``None`` section
    shortcut (``solver=``, ``backend=``, ...) replacing its section."""
    cfg = config if config is not None else RunConfig()
    if not isinstance(cfg, RunConfig):
        raise ConfigurationError(
            f"config must be a RunConfig, got {type(cfg).__name__}"
        )
    sections = {key: value for key, value in sections.items() if value is not None}
    return cfg.replace(**sections) if sections else cfg


def open_stream(scfg: StreamConfig, source: Any) -> SnapshotStream:
    """The global batch stream of ``source`` under ``scfg``: a 2-D array
    (sliced into ``scfg.batch``-column batches), a path to a
    :class:`~repro.data.io.SnapshotDataset`, a :class:`~repro.data.
    streams.SnapshotStream`, or ``None`` for ``scfg.source``."""
    if source is None:
        if scfg.source is None:
            raise ConfigurationError(
                "fit_stream() needs a data source: pass one, or set "
                "stream.source in the RunConfig"
            )
        source = scfg.source
    if isinstance(source, SnapshotStream):
        return source
    if isinstance(source, (str, pathlib.Path)):
        from .data.io import SnapshotDataset

        if scfg.batch is None:
            raise ConfigurationError(
                "streaming from an on-disk container requires "
                "stream.batch in the RunConfig"
            )
        return dataset_stream(SnapshotDataset.open(source), scfg.batch)
    if scfg.batch is None:
        raise ConfigurationError(
            "streaming an in-memory matrix requires stream.batch "
            "in the RunConfig (or pass a SnapshotStream)"
        )
    return array_stream(np.asarray(source), scfg.batch)


@dataclasses.dataclass(frozen=True)
class SessionResult:
    """What a finished (or checkpointed) session computed.

    ``modes`` follows the solver's gather policy: the global mode matrix
    under ``"bcast"`` (all ranks) and ``"root"`` (rank 0; ``None``
    elsewhere), this rank's local block under ``"none"``.  Arrays may be
    read-only zero-copy snapshots shared between ranks — copy before
    mutating.  Under ``"none"`` the block is a read-only view of the
    driver's double-buffered workspace, valid until the second-next
    update (:attr:`~repro.core.parallel.ParSVDParallel.local_modes`).
    """

    modes: Optional[np.ndarray]
    singular_values: np.ndarray
    iteration: int
    n_seen: int


class Session:
    """Owns one run end to end: communicator, driver, streams, lifecycle.

    Parameters
    ----------
    config:
        The :class:`~repro.config.RunConfig` to run (default: all
        defaults).
    comm:
        Adopt an existing communicator (one rank of an SPMD job, or a
        wrapped ``mpi4py`` world) instead of creating one.  Without it
        the session creates — and owns — the communicator described by
        ``config.backend``; the multi-rank ``"threads"`` backend needs
        one session *per rank*, so create those through :meth:`run`.
    solver, backend, stream, obs:
        Section shortcuts: ``Session(solver=SolverConfig(K=8))`` is
        ``Session(RunConfig(solver=SolverConfig(K=8)))``; when both a
        ``config`` and a section are given, the section replaces the
        config's.

    With ``config.obs`` enabled the session installs process-global
    observability (:mod:`repro.obs`) for its lifetime: every
    communicator op is metered, the streaming step reports its
    ``step_seconds`` and ``finish_seconds`` histograms, and (with
    ``obs.trace``) phase spans accumulate on the tracer.  Read them
    through :attr:`metrics` and :meth:`dump_trace`; the install is
    reference-counted, so the per-rank sessions of one :meth:`run` share
    a single registry.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import Session, SolverConfig, StreamConfig
    >>> data = np.random.default_rng(0).standard_normal((100, 30))
    >>> with Session(solver=SolverConfig(K=3, ff=1.0),
    ...              stream=StreamConfig(batch=10)) as session:
    ...     res = session.fit_stream(data).result()
    >>> res.modes.shape
    (100, 3)
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        *,
        comm: Any = None,
        solver: Optional[SolverConfig] = None,
        backend: Optional[BackendConfig] = None,
        stream: Optional[StreamConfig] = None,
        obs: Optional[ObservabilityConfig] = None,
    ) -> None:
        cfg = resolve_config(
            config, solver=solver, backend=backend, stream=stream, obs=obs
        )
        self._config = cfg
        self._obs_installed = False
        if cfg.obs.enabled:
            # Installed before the communicator exists so the factory's
            # observer hook meters it; uninstalled (refcounted) on close.
            _obs.install(metrics=cfg.obs.metrics, trace=cfg.obs.trace)
            self._obs_installed = True
        self._faults_installed = False
        if cfg.faults.active:
            # Same refcounted pattern as obs: the first install builds the
            # controller, per-rank siblings share it.  A Recovery pins a
            # controller *before* the sessions exist, so their installs
            # here just add references to it.
            _faults.install(cfg.faults)
            self._faults_installed = True
        self._owns_comm = comm is None
        self._health_daemon = None
        try:
            if comm is None:
                bcfg = cfg.backend
                if bcfg.name == "threads" and bcfg.size > 1:
                    raise ConfigurationError(
                        f"a single Session cannot host {bcfg.size} 'threads' "
                        f"ranks (each rank needs its own); dispatch with "
                        f"Session.run(config, fn) instead"
                    )
                comm = create_communicator(
                    bcfg.name,
                    bcfg.size,
                    timeout=bcfg.timeout,
                    irecv_buffer_bytes=bcfg.irecv_buffer_bytes,
                )
            else:
                # Adopted communicators (the per-rank Session.run form, an
                # mpi4py world) may predate this session's installs — add
                # the concerns their chain lacks now.
                comm = wrap_communicator(comm)
            if cfg.health.enabled:
                self._start_health_daemon(comm)
        except BaseException:
            if self._health_daemon is not None:
                self._health_daemon.stop(retire=False)
                self._health_daemon = None
            if self._obs_installed:
                self._obs_installed = False
                _obs.uninstall()
            if self._faults_installed:
                self._faults_installed = False
                _faults.uninstall()
            raise
        self._comm = comm
        self._driver: Optional[ParSVDParallel] = None
        self._closed = False
        # Live PrefetchStreams handed to fit_stream — aborted on
        # close(drop_pending=True) so no producer thread outlives a
        # crashed session.
        self._prefetch_streams: List[PrefetchStream] = []
        # Set by Session.run's restart mode: fit_stream then replays with
        # skip and captures a snapshot every checkpoint_every batches.
        self._recovery: Optional[Recovery] = None

    def _start_health_daemon(self, comm: Any) -> None:
        """Start this rank's heartbeat daemon (``health.enabled``).

        The daemon beats this rank's world mailbox and (one per world)
        runs the :class:`~repro.health.monitor.HealthMonitor` that
        escalates silent peers to ``World.fail_rank``.  Imported lazily —
        :mod:`repro.health` sits above this module.
        """
        from .health.daemon import ProgressDaemon, communicator_world
        from .health.monitor import HealthMonitor

        world, world_rank = communicator_world(comm)
        monitor = None
        if world is not None:
            # One monitor per world: the first rank's session builds it,
            # siblings reuse it (fail_rank is idempotent either way).
            monitor = world.health
            if monitor is None:
                monitor = HealthMonitor(world, self._config.health)
        self._health_daemon = ProgressDaemon(
            self._config.health.heartbeat_interval,
            world=world,
            world_rank=world_rank,
            monitor=monitor,
        ).start()

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drop_pending=exc_type is not None)

    def close(self, *, drop_pending: bool = False) -> None:
        """End the session: stop its health daemon and release the driver
        (and, when owned, the communicator binding).

        Safe to call twice.  Every streaming step finishes in the call
        that posts it, so no step is left to drain.  With
        ``drop_pending=True`` (what ``__exit__`` passes while an
        exception is unwinding) any background :class:`~repro.data.
        streams.PrefetchStream` producers this session started are
        stopped and joined, so a crashed session leaks no threads.
        """
        if self._closed:
            return
        daemon, self._health_daemon = self._health_daemon, None
        if daemon is not None:
            # Retired, so peer monitors treat the silence as a clean
            # departure rather than a death.
            daemon.stop(retire=True)
        self._driver = None
        streams, self._prefetch_streams = self._prefetch_streams, []
        self._closed = True
        if drop_pending:
            for stream in streams:
                stream.abort()
        if self._owns_comm:
            self._comm = None
        if self._obs_installed:
            self._obs_installed = False
            _obs.uninstall()
        if self._faults_installed:
            self._faults_installed = False
            _faults.uninstall()

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("this Session is closed")

    # -- configuration / plumbing accessors --------------------------------
    @property
    def config(self) -> RunConfig:
        """The full typed run configuration this session executes."""
        return self._config

    @property
    def comm(self) -> Any:
        """This session's communicator (rank view)."""
        self._require_open()
        return self._comm

    @property
    def driver(self) -> ParSVDParallel:
        """The underlying :class:`~repro.core.parallel.ParSVDParallel`,
        built lazily from ``config.solver`` on first access."""
        self._require_open()
        if self._driver is None:
            self._driver = ParSVDParallel(
                self._comm, solver=self._config.solver
            )
        return self._driver

    def _require_fitted(self) -> ParSVDParallel:
        if self._driver is None or not self._driver.initialized:
            raise ConfigurationError(
                "this Session has not ingested any data yet; call "
                "fit_stream()/initialize() (or Session.resume) first"
            )
        return self._driver

    # -- streaming ---------------------------------------------------------
    def _resolve_stream(
        self, source: Any, partition: bool
    ) -> Iterable[np.ndarray]:
        scfg = self._config.stream
        stream = open_stream(scfg, source)
        if partition and self._comm.size > 1:
            if stream.n_dof is None:
                raise ConfigurationError(
                    "cannot row-partition a stream of unknown n_dof "
                    "across ranks; declare it (e.g. function_stream("
                    "n_dof=...)) or pass partition=False with rank-local "
                    "batches"
                )
            part = block_partition(stream.n_dof, self._comm.size)
            stream = stream.restrict_rows(part.slice_of(self._comm.rank))
        if scfg.prefetch > 0:
            stream = PrefetchStream(stream, depth=scfg.prefetch)
            # Tracked so close(drop_pending=True) can stop the producer
            # thread of an iteration abandoned mid-stream by a crash.
            self._prefetch_streams.append(stream)
        return stream

    def fit_stream(
        self,
        source: Any = None,
        *,
        partition: bool = True,
        replay: Optional[bool] = None,
    ) -> "Session":
        """Stream a whole data source through the driver.

        Parameters
        ----------
        source:
            A 2-D array (sliced into ``stream.batch``-column batches), a
            path to a :class:`~repro.data.io.SnapshotDataset` container,
            a :class:`~repro.data.streams.SnapshotStream`, or ``None`` to
            open ``config.stream.source``.
        partition:
            ``True`` (default): the source is *global* and each rank
            ingests its canonical :func:`~repro.utils.partition.
            block_partition` row block — the APMOS domain decomposition,
            wired for you.  ``False``: the source is already rank-local.

        A fresh session initialises on the first batch; a resumed (or
        previously fitted) one keeps incorporating — so checkpoint /
        resume / ``fit_stream`` composes into one continuous stream.
        ``replay`` declares what the source covers relative to the
        restored state: ``False`` (the plain-resume contract), the
        stream holds only *new* columns and every batch is ingested;
        ``True``, the stream is the FULL run replayed from the start
        and batches the restored state already covers are skipped, not
        re-ingested — checkpoints land on batch boundaries, so whole
        batches skip exactly and the replayed run stays bit-identical
        to an uninterrupted one.  The default (``None``) is ``False``
        except under ``Session.run(restart_policy=...)``, whose job
        functions stream the whole run every attempt and recover from
        the latest snapshot.  ``config.stream.prefetch`` wraps the
        rank-local stream in a background :class:`~repro.data.streams.
        PrefetchStream`, so the next batch is read while this one is
        factored.
        """
        self._require_open()
        driver = self.driver
        got_any = driver.initialized
        recovery = self._recovery
        if replay is None:
            replay = recovery is not None
        already_seen = driver.n_seen if (got_any and replay) else 0
        seen = 0
        ingested = 0
        stream = self._resolve_stream(source, partition)
        try:
            for batch in stream:
                width = batch.shape[1]
                if already_seen and seen + width <= already_seen:
                    # Restart replay: this batch is inside the restored
                    # state already.
                    seen += width
                    st = _obs.state()
                    if st is not None and st.registry is not None:
                        st.registry.counter(
                            "repro.recovery.replayed_batches"
                        ).inc()
                    continue
                seen += width
                if not got_any:
                    driver.initialize(batch)
                    got_any = True
                else:
                    driver.incorporate_data(batch)
                ingested += 1
                if (
                    recovery is not None
                    and ingested % recovery.policy.checkpoint_every == 0
                ):
                    # Collective, but in lockstep: every rank ingests the
                    # same batch schedule, so the counters agree.
                    recovery.capture(self)
        except BaseException:
            # Stop the background producer promptly (close(drop_pending)
            # aborts too — this covers bare fit_stream callers).
            if isinstance(stream, PrefetchStream):
                stream.abort()
            raise
        if not got_any:
            raise ConfigurationError("fit_stream received an empty batch stream")
        return self

    def initialize(self, batch: np.ndarray) -> "Session":
        """Manual stepping: factor the first rank-local batch."""
        self.driver.initialize(batch)
        return self

    def incorporate_data(self, batch: np.ndarray) -> "Session":
        """Manual stepping: ingest one more rank-local batch."""
        self.driver.incorporate_data(batch)
        return self

    # -- results -----------------------------------------------------------
    def result(self) -> SessionResult:
        """Assemble and return the current factorization.

        Collective when modes are stale (all ranks must call in step —
        the same contract as reading
        :attr:`~repro.core.parallel.ParSVDParallel.modes`).
        """
        driver = self._require_fitted()
        modes = driver.assemble_modes()
        return SessionResult(
            modes=modes,
            singular_values=driver.singular_values,
            iteration=driver.iteration,
            n_seen=driver.n_seen,
        )

    @property
    def modes(self) -> np.ndarray:
        """Global modes per the gather policy (collective when stale)."""
        return self._require_fitted().modes

    @property
    def local_modes(self) -> np.ndarray:
        """This rank's mode block (never communicates)."""
        return self._require_fitted().local_modes

    @property
    def singular_values(self) -> np.ndarray:
        """Current singular values."""
        return self._require_fitted().singular_values

    def rescale(self, new_size: int) -> "Session":
        """Live mid-stream rescale — elastic sessions only.

        A plain session is one rank of a fixed-size world and cannot
        resize it; run under ``Session.run(...,
        restart_policy=RestartPolicy(mode="live"))`` (or construct a
        :class:`~repro.health.ElasticSession` directly) to rescale.
        """
        from .exceptions import RescaleError

        raise RescaleError(
            f"this Session is one rank of a fixed-size world and cannot "
            f"rescale to {new_size}; use RestartPolicy(mode='live') with "
            f"Session.run, or repro.health.ElasticSession"
        )

    # -- observability -----------------------------------------------------
    @property
    def metrics(self) -> dict:
        """Snapshot of the metrics registry this session reports into.

        ``{"counters": ..., "gauges": ..., "histograms": ...}`` keyed by
        metric name (``repro.<subsystem>.<name>``).  The registry is
        process-global and shared by the per-rank sessions of one
        :meth:`run`, so reading it after the run sees every rank's
        contributions merged; it remains readable after :meth:`close`.
        """
        return _obs.current_registry().snapshot()

    def dump_trace(self, path: PathLike) -> str:
        """Write the span timeline as Chrome-trace JSON to ``path``.

        The file loads in ``chrome://tracing`` / Perfetto: one process
        per rank, spans grouped by phase (``ingest``, ``qr``,
        ``tsqr_comm``, ``svd``, ``wait``, ``flush``).  Meaningful when
        the session runs with ``obs.trace`` enabled; an empty trace is
        still valid JSON.  Returns ``path`` as a string.
        """
        _obs.current_tracer().write_chrome_trace(path)
        return str(path)

    # -- persistence / serving ---------------------------------------------
    def save_checkpoint(self, path: PathLike, gathered: bool = False) -> str:
        """Checkpoint the streaming state with this session's
        :class:`RunConfig` embedded, so :meth:`resume` restores solver
        *and* backend settings.  ``gathered=True`` writes one rank-0 file
        restartable at any rank count (collective)."""
        return self._require_fitted().save_checkpoint(
            path, gathered=gathered, run_config=self._config
        )

    def export_to_store(self, store: Any, name: str) -> int:
        """Publish the current basis into a serving
        :class:`~repro.serving.ModeBaseStore` (collective); returns the
        assigned version on every rank."""
        return self._require_fitted().export_to_store(store, name)

    def query_engine(self, store: Any, **options: Any):
        """A serving :class:`~repro.serving.QueryEngine` over this
        session's communicator (``options`` pass through, e.g.
        ``flush_threshold=``, ``result_cache_entries=``,
        ``max_cached_bases=``, ``replicate=``)."""
        self._require_open()
        from .serving.engine import QueryEngine

        return QueryEngine(self._comm, store, **options)

    # -- resume / SPMD dispatch --------------------------------------------
    @classmethod
    def resume(
        cls,
        path: PathLike,
        *,
        comm: Any = None,
        config: Optional[RunConfig] = None,
        backend: Optional[BackendConfig] = None,
    ) -> "Session":
        """Reopen a checkpointed run as a live session.

        The effective :class:`RunConfig` is, in precedence order: the
        explicit ``config`` argument, else the config embedded in the
        checkpoint, else (legacy checkpoints) one reconstructed from the
        recorded solver fields; ``backend`` then replaces its backend
        section (e.g. to resume a gathered checkpoint at a different
        rank count).  With ``comm`` given the session adopts that rank's
        communicator (the per-rank form :meth:`run` uses); otherwise the
        session creates the backend itself, under the same single-rank
        constraint as the constructor.

        Restores bit-identically: the continued stream matches an
        uninterrupted run to machine precision, including from
        checkpoints written by the legacy (pre-``RunConfig``) API.
        """
        cfg = config if config is not None else checkpoint_run_config(path)
        if backend is not None:
            cfg = cfg.replace(backend=backend)
        session = cls(cfg, comm=comm)
        try:
            session._driver = ParSVDParallel.from_checkpoint(
                session._comm, path, solver=cfg.solver
            )
        except BaseException:
            session.close(drop_pending=True)
            raise
        return session

    @classmethod
    def run(
        cls,
        config: Optional[RunConfig],
        fn: Callable[..., Any],
        *args: Any,
        resume: Optional[PathLike] = None,
        trace: bool = False,
        restart_policy: Optional[RestartPolicy] = None,
        **kwargs: Any,
    ) -> List[Any]:
        """Run ``fn(session, *args, **kwargs)`` SPMD-style on the
        configured backend — the one entry point every CLI subcommand,
        example and benchmark drives.

        Each rank receives its own :class:`Session` (sharing ``config``),
        entered and exited around ``fn``.  With ``resume=`` each rank's
        session is :meth:`resume`-d from that checkpoint instead of
        starting fresh (``config=None`` then takes the checkpoint's
        embedded config).  Returns the rank-ordered list of per-rank
        results (``trace=True`` additionally returns the communication
        tracers, as :func:`repro.smpi.run_backend` does).

        With ``restart_policy=`` the run survives rank failures through
        one :class:`Recovery`: a gathered snapshot is captured every
        ``checkpoint_every`` ingested batches, and when a rank fails —
        the root cause is a :class:`~repro.exceptions.CommunicatorError`
        — the world is torn down (prefetch producers stopped) and rebuilt
        from the latest snapshot after an exponential backoff; any other
        error propagates at once.  In the
        default ``mode="restart"`` ``fn`` is re-entered on the rebuilt
        world and replays the stream, skipping the batches the snapshot
        already covers, so a recovered run matches an uninterrupted one
        to machine precision; ``shrink=True`` drops one rank per restart
        (never below ``min_size``).  ``mode="live"`` runs ``fn`` once on
        a :class:`~repro.health.ElasticSession` that rebuilds the world
        one rank smaller under it; it returns that single result
        replicated to the final rank count and cannot be combined with
        ``trace=True``.  When ``config.faults.active`` the fault
        controller is pinned *across* rebuilds, so a fire-once injected
        crash stays fired and the recovered stream runs clean.
        """
        if config is None:
            if resume is None:
                raise ConfigurationError(
                    "Session.run needs a RunConfig (or a resume checkpoint "
                    "to take one from)"
                )
            config = checkpoint_run_config(resume)
        elif not isinstance(config, RunConfig):
            raise ConfigurationError(
                f"config must be a RunConfig, got {type(config).__name__}"
            )
        if restart_policy is None:
            return cls._dispatch(
                config, fn, args, kwargs, resume=resume, trace=trace
            )
        if not isinstance(restart_policy, RestartPolicy):
            raise ConfigurationError(
                f"restart_policy must be a RestartPolicy, "
                f"got {type(restart_policy).__name__}"
            )
        if restart_policy.mode == "live":
            if trace:
                raise ConfigurationError(
                    "trace=True cannot be combined with "
                    "RestartPolicy(mode='live'): a live world is rebuilt on "
                    "every shrink, so there is no single set of tracers to "
                    "return"
                )
            from .health.elastic import ElasticSession

            if resume is not None:
                session = ElasticSession.resume(
                    resume, config=config, policy=restart_policy
                )
            else:
                session = ElasticSession(config, policy=restart_policy)
            with session:
                result = fn(session, *args, **kwargs)
                return [result] * session.size
        with Recovery(config, restart_policy, resume) as recovery:
            while True:
                try:
                    return cls._dispatch(
                        recovery.config,
                        fn,
                        args,
                        kwargs,
                        resume=None,
                        trace=trace,
                        recovery=recovery,
                    )
                except CommunicatorError as exc:  # ParallelFailure is one
                    if not recovery.retry(exc):
                        raise

    @classmethod
    def _dispatch(
        cls,
        config: RunConfig,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        *,
        resume: Optional[PathLike],
        trace: bool,
        recovery: Optional["Recovery"] = None,
    ) -> List[Any]:
        """One SPMD attempt: build per-rank sessions and run ``fn``."""
        bcfg = config.backend

        def job(comm):
            if recovery is not None:
                session = recovery.open(comm)
                session._recovery = recovery
            elif resume is not None:
                session = cls.resume(resume, comm=comm, config=config)
            else:
                session = cls(config, comm=comm)
            with session:
                return fn(session, *args, **kwargs)

        return run_backend(
            bcfg.name,
            bcfg.size,
            job,
            timeout=bcfg.timeout,
            trace=trace,
            irecv_buffer_bytes=bcfg.irecv_buffer_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "fitted" if self._driver is not None and self._driver.initialized
            else "fresh"
        )
        bcfg = self._config.backend
        return (
            f"Session(backend={bcfg.name!r}, size={bcfg.size}, "
            f"K={self._config.solver.K}, {state})"
        )


class Recovery:
    """The one recovery mechanism behind :class:`~repro.config.
    RestartPolicy`, shared by :meth:`Session.run` and
    :class:`~repro.health.ElasticSession`.

    It holds, across every rebuild of the world:

    * the pinned fault controller and one observability reference, so a
      fire-once injected crash stays fired and every counter lands in one
      registry;
    * the restart budget, the shrink rule and the backoff;
    * the latest gathered :class:`~repro.core.checkpoint.Snapshot` of
      this run, kept in memory and written as ``recovery.npz`` under
      ``policy.checkpoint_path`` when that is set.  Each ``mpi4py``
      process holds only the snapshots it captured itself, so there
      every rank restores from that file and a ``checkpoint_path`` is
      required.

    ``policy.mode`` only decides what a rebuild serves: ``"restart"``
    re-enters the job, which replays its stream with skip (metered as
    ``repro.recovery.restarts``); ``"live"`` rebuilds the world under the
    running job, always one rank smaller (``repro.recovery.
    live_rescales``).  Use it as a context manager.
    """

    def __init__(
        self,
        config: RunConfig,
        policy: RestartPolicy,
        resume: Optional[PathLike] = None,
    ) -> None:
        self._from_file = config.backend.name == "mpi4py"
        if self._from_file and policy.checkpoint_path is None:
            raise ConfigurationError(
                "a restart policy on the 'mpi4py' backend needs "
                "checkpoint_path: each process holds only the snapshots it "
                "captured, so every rank must restore from the shared file"
            )
        self.policy = policy
        self.resume = resume
        self.live = policy.mode == "live"
        self.size = config.backend.size
        self.failures = 0
        self.rebuilds = 0
        self.snapshot: Optional[Snapshot] = None
        self.path: Optional[pathlib.Path] = None
        if policy.checkpoint_path is not None:
            directory = pathlib.Path(policy.checkpoint_path)
            directory.mkdir(parents=True, exist_ok=True)
            self.path = directory / "recovery.npz"
        self._config = config
        self._rng = random.Random((config.faults.seed + 1) * 7919)
        self._pinned = config.faults.active
        if self._pinned:
            _faults.install(controller=FaultController(config.faults))
        self._obs_held = config.obs.enabled
        if self._obs_held:
            _obs.install(metrics=config.obs.metrics, trace=config.obs.trace)
            st = _obs.state()
            if st is not None and st.registry is not None:
                # Report every recovery counter, zeros included, so a
                # reader can assert the other mode's counter stayed 0.
                for kind in ("restarts", "live_rescales", "replayed_batches"):
                    st.registry.counter(f"repro.recovery.{kind}")

    def __enter__(self) -> "Recovery":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release the pinned controller and the obs reference."""
        if self._obs_held:
            self._obs_held = False
            _obs.uninstall()
        if self._pinned:
            self._pinned = False
            _faults.uninstall()

    @property
    def config(self) -> RunConfig:
        """The run configuration at the current world size."""
        if self.size == self._config.backend.size:
            return self._config
        return self._config.replace(
            backend=self._config.backend.replace(size=self.size)
        )

    def open(self, comm: Any) -> Session:
        """This rank's :class:`Session` of a (re)built world: restored
        from the latest snapshot, else resumed from ``resume``, else
        fresh."""
        config = self.config
        if self._from_file and self.rebuilds and self.path.exists():
            self.snapshot, self.resume = None, self.path
        if self.snapshot is not None:
            session = Session(config, comm=comm)
            session._driver = ParSVDParallel.from_snapshot(
                session.comm, self.snapshot, solver=config.solver
            )
            return session
        if self.resume is not None:
            return Session.resume(self.resume, comm=comm, config=config)
        return Session(config, comm=comm)

    def capture(self, session: Session) -> None:
        """Collective: make ``session``'s state the latest snapshot (and
        the recovery file) — one ``gatherv_rows`` plus one ``barrier`` per
        rank."""
        snapshot = session.driver.snapshot(self.path, session.config)
        if snapshot is not None:
            self.snapshot = snapshot

    def retry(self, exc: BaseException) -> bool:
        """Account the failure ``exc``; ``True`` (after the backoff) when
        the world should be rebuilt, ``False`` when ``exc`` must propagate.

        Only rank failures are retried: the root cause — a
        :class:`~repro.smpi.executor.ParallelFailure`'s first failure
        that is not a peer's secondary ``FailedRankError`` — must be a
        :class:`~repro.exceptions.CommunicatorError`.  An error the job
        raises on every rank would only fail again.
        """
        root = exc.root_cause if isinstance(exc, ParallelFailure) else exc
        if not isinstance(root, CommunicatorError):
            return False
        self.failures += 1
        if self.failures > self.policy.max_restarts:
            return False
        size = self.size
        if (self.live or self.policy.shrink) and size > self.policy.min_size:
            size -= 1
        self.rebuilt(size)
        time.sleep(self.policy.backoff_for(self.failures, self._rng))
        return True

    def rebuilt(self, size: int) -> None:
        """Record one rebuild of the world at ``size`` ranks (metered as
        ``repro.recovery.live_rescales`` or ``.restarts`` by mode)."""
        self.size = size
        self.rebuilds += 1
        st = _obs.state()
        if st is not None and st.registry is not None:
            kind = "live_rescales" if self.live else "restarts"
            st.registry.counter(f"repro.recovery.{kind}").inc()
