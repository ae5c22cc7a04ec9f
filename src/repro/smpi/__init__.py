"""``repro.smpi`` — pluggable communicator backends for the SVD drivers.

The paper's parallel algorithms are written against ``mpi4py``.  This
subpackage defines the small **communicator protocol** those algorithms
actually need and provides three interchangeable backends behind one
factory (:func:`create_communicator` / :func:`run_backend`):

* ``"threads"`` — the in-process, thread-based MPI substitute (default):
  SPMD execution via :func:`run_spmd` (one thread per rank), point-to-point
  ``send/recv/isend/irecv`` with tags and wildcards, collectives built on
  point-to-point so their traffic is faithfully accounted, ``split``/``dup``
  context management, and deadlock detection with per-rank tracebacks.
* ``"self"`` — :class:`SelfCommunicator`, a zero-overhead single-rank
  communicator that short-circuits every collective (no mailboxes, no
  threads); the parallel drivers then run at serial speed.
* ``"mpi4py"`` — a thin adapter over real MPI for cluster runs; optional,
  used only when the ``mpi4py`` package is importable (see
  :data:`repro.smpi.mpi.HAVE_MPI4PY`).

Communicator protocol (full table in :mod:`repro.smpi.factory`): ``rank`` /
``size``, ``send`` / ``recv`` / ``isend`` / ``irecv``, ``bcast``,
``gather`` / ``gatherv_rows``, ``allreduce`` (deterministic rank-ordered
fold, ``SUM``), ``barrier``, and ``split`` / ``dup`` — the ops the
algorithms call, and nothing else.  Anything implementing it can drive
:class:`~repro.core.parallel.ParSVDParallel` and the APMOS/TSQR kernels.

The API intentionally mirrors mpi4py's lowercase ("pickle") methods, which
is what the paper's listings use (``comm.gather``, ``comm.bcast``,
``comm.send``/``comm.recv``), so the core algorithms read like the paper.

One interception layer (:mod:`repro.smpi.intercept`) wraps any backend
without changing its surface: the :class:`CommTracer` records
per-operation byte counts, which feed the analytic scaling model used to
reproduce the paper's weak-scaling figure, and the metrics observer and
fault injector of :mod:`repro.obs` / :mod:`repro.faults` are proxies on
the same op table.
"""

from .communicator import ANY_SOURCE, ANY_TAG, NB_TAG_BASE, Communicator
from .exceptions import (
    DeadlockError,
    FailedRankError,
    SmpiError,
    RankError,
    TagError,
)
from .executor import ParallelFailure, run_spmd
from .factory import BACKENDS, DEFAULT_BACKEND, create_communicator, run_backend
from .mailbox import DEFAULT_TIMEOUT
from .mpi import HAVE_MPI4PY
from .provenance import Leak, RequestTracker, TRACKER, pending_summary, track
from .reduction import SUM, ReduceOp
from .request import RecvRequest, Request, SendRequest
from .selfcomm import SelfCommunicator
from .tracer import COLLECTIVE_OPS, CommRecord, CommTracer, TrafficSummary

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "Communicator",
    "SelfCommunicator",
    "HAVE_MPI4PY",
    "NB_TAG_BASE",
    "SmpiError",
    "RankError",
    "TagError",
    "DeadlockError",
    "FailedRankError",
    "DEFAULT_TIMEOUT",
    "ParallelFailure",
    "Request",
    "SendRequest",
    "RecvRequest",
    "run_spmd",
    "run_backend",
    "create_communicator",
    "ReduceOp",
    "SUM",
    "CommTracer",
    "CommRecord",
    "COLLECTIVE_OPS",
    "TrafficSummary",
    "Leak",
    "RequestTracker",
    "TRACKER",
    "track",
    "pending_summary",
]
