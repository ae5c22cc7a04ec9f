"""Per-session background heartbeat daemon.

One daemon thread per :class:`~repro.api.Session` (when
``HealthConfig.enabled``), doing two things every
``heartbeat_interval``, busy or idle:

1. **Heartbeat** — publish this rank's liveness beat on its world
   mailbox, so peers' monitors see it alive even while its main thread
   is deep in a BLAS call.
2. **Monitoring** — run the :class:`~repro.health.monitor.HealthMonitor`
   check, escalating peers whose beats went stale.

A check that raises is counted (``repro.errors.health``) and logged as
a warning on the daemon's first; the daemon keeps ticking.  All
``repro.health.*`` metrics flow through :mod:`repro.obs` and cost
nothing while observability is off.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Optional, Tuple

from ..obs import runtime as _obs
from .monitor import HealthMonitor

__all__ = ["ProgressDaemon", "communicator_world"]

_log = logging.getLogger(__name__)


def record_failure(log: logging.Logger, first: bool, what: str) -> None:
    """Count a failure its caller carries on past (``repro.errors.health``)
    and, on the caller's ``first``, warn with the traceback.  Call it in
    the ``except`` block."""
    _obs.current_registry().counter("repro.errors.health").inc()
    if first:
        log.warning(
            "%s failed; later failures are only counted (repro.errors.health)",
            what,
            exc_info=True,
        )


def communicator_world(comm: Any) -> Tuple[Optional[Any], Optional[int]]:
    """Resolve ``(world, world_rank)`` behind a possibly-wrapped
    communicator.

    Unwraps the interception proxy chain (tracer, fault injector,
    observer) via their ``inner`` attributes.  Backends without a shared
    world (``SelfCommunicator``, the mpi4py adapter) yield
    ``(None, None)`` — heartbeat monitoring degrades to a no-op there.
    """
    seen = set()
    while True:
        inner = getattr(comm, "inner", None)
        if inner is None or inner is comm or id(comm) in seen:
            break
        seen.add(id(comm))
        comm = inner
    world = getattr(comm, "world", None)
    if world is None:
        return None, None
    try:
        world_rank = comm.world_rank
    except AttributeError:  # pragma: no cover - foreign communicator
        return None, None
    return world, int(world_rank)


class ProgressDaemon:
    """Background heartbeat thread for one session rank.

    Parameters
    ----------
    interval:
        Tick period (``HealthConfig.heartbeat_interval``).
    world, world_rank:
        The shared world and this rank's world rank (from
        :func:`communicator_world`); ``None`` disables heartbeating.
    monitor:
        Optional :class:`HealthMonitor` to run each tick.
    """

    def __init__(
        self,
        interval: float,
        *,
        world: Optional[Any] = None,
        world_rank: Optional[int] = None,
        monitor: Optional[HealthMonitor] = None,
        name: Optional[str] = None,
    ) -> None:
        self._interval = max(float(interval), 1e-4)
        self._world = world
        self._world_rank = world_rank
        self._monitor = monitor
        self._stop = threading.Event()
        self._warned = False
        rank_tag = "?" if world_rank is None else str(world_rank)
        self._thread = threading.Thread(
            target=self._run,
            name=name or f"repro-health-{rank_tag}",
            daemon=True,
        )
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ProgressDaemon":
        if not self._started:
            self._started = True
            self._beat()
            self._thread.start()
        return self

    def stop(self, *, retire: bool = True) -> None:
        """Stop the daemon and (by default) retire this rank.

        Retiring tells peer monitors the silence that follows is a clean
        departure, not a death — a rank that finishes its job early must
        not be escalated to ``fail_rank`` while its siblings drain.
        """
        if not self._started:
            return
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        if retire and self._world is not None and self._world_rank is not None:
            self._world.retire_rank(self._world_rank)

    @property
    def running(self) -> bool:
        return self._started and self._thread.is_alive()

    # -- the tick loop -----------------------------------------------------
    def _beat(self) -> None:
        if self._world is not None and self._world_rank is not None:
            self._world.heartbeat(self._world_rank)
            st = _obs.state()
            if st is not None and st.registry is not None:
                st.registry.counter("repro.health.beats").inc()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._beat()
            if self._monitor is not None:
                try:
                    self._monitor.check()
                except Exception:
                    record_failure(
                        _log,
                        not self._warned,
                        f"health monitor check on rank {self._world_rank}",
                    )
                    self._warned = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else "stopped"
        return f"ProgressDaemon(rank={self._world_rank}, {state})"
