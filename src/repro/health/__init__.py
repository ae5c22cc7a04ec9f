"""repro.health — liveness monitoring and live elasticity.

Three pieces turn elasticity from a restart-time property into a live
property of a running :class:`~repro.api.Session`:

* :class:`HealthMonitor` — classifies peer ranks from the monotonic
  heartbeat each rank's mailbox publishes (``alive`` / ``straggler`` /
  ``suspect`` / ``dead``) and drives
  :meth:`~repro.smpi.world.World.fail_rank` proactively, so blocked
  collectives wake as soon as a peer is declared dead instead of waiting
  out the ``DeadlockError`` timeout.
* :class:`ProgressDaemon` — a per-session background thread that, every
  ``heartbeat_interval``, beats this rank's heartbeat and runs the
  monitor, and reports ``repro.health.*`` gauges/counters through
  :mod:`repro.obs`.
* :class:`ElasticSession` — owns a whole in-process world and drives one
  :class:`~repro.api.Session` per rank, so it can
  :meth:`~ElasticSession.rescale` mid-stream: the distributed factors
  are captured in a gathered snapshot, the world is rebuilt at the new
  size from it, rows are re-partitioned, and ``fit_stream`` resumes
  exactly where it left off.  ``RestartPolicy(mode="live")`` is the live
  mode of the one :class:`~repro.api.Recovery` that ``Session.run`` also
  uses: a rank failure rebuilds this session's world one rank smaller
  from the latest snapshot instead of re-entering the job.

Everything here is off by default (``HealthConfig.enabled=False``) and
costs nothing while disabled.
"""

from .daemon import ProgressDaemon, communicator_world
from .elastic import ElasticSession
from .monitor import (
    RANK_ALIVE,
    RANK_DEAD,
    RANK_STRAGGLER,
    RANK_SUSPECT,
    HealthMonitor,
)

__all__ = [
    "HealthMonitor",
    "ProgressDaemon",
    "ElasticSession",
    "communicator_world",
    "RANK_ALIVE",
    "RANK_STRAGGLER",
    "RANK_SUSPECT",
    "RANK_DEAD",
]
