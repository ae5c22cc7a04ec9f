"""Communicator backend registry: one name selects the whole substrate.

The parallel algorithms in :mod:`repro.core` are written against a small
**communicator protocol** rather than a concrete class, so the same driver
code runs on an in-process simulator, a zero-overhead serial communicator,
or real MPI.  This module is the single place that protocol and its
implementations are registered (the shape follows ChainerMN's
``create_communicator`` factory).

Communicator protocol
---------------------
Any object with this surface works with every driver in the library
(:class:`~repro.core.parallel.ParSVDParallel`, the APMOS and TSQR kernels,
the tracer):

=================== =====================================================
``rank``, ``size``   This rank's id and the number of ranks (also
                     ``Get_rank()`` / ``Get_size()``).
``send/recv``        Blocking pickle-mode point-to-point with tags and
                     ``ANY_SOURCE``/``ANY_TAG`` wildcards; value
                     semantics (payloads snapshotted at send time).
``isend/irecv``      Nonblocking variants returning request objects with
                     ``wait(timeout=)``/``test()`` (an in-process
                     backend's receive request also has ``cancel()``).
``bcast``            Root's object on every rank.
``gather``           Rank-ordered list at the root, ``None`` elsewhere.
``gatherv_rows``     Per-rank 2-D row blocks vertically stacked at the
                     root (row counts may differ) — the modes-assembly
                     op.
``allreduce``        Deterministic rank-ordered reduction (``SUM``),
                     result on all ranks.  ``out=`` folds into a
                     caller-provided buffer on every rank
                     (allocation-free repeated reductions).
``barrier``          Synchronise all ranks.
``split/dup``        Context-isolated sub/duplicate communicators.
=================== =====================================================

These are the ops the algorithms call; every backend implements them
and no other communicator op.  :data:`~repro.smpi.intercept.OPS` lists
the data-moving ones the proxies intercept.

Every communicator this module, :func:`~repro.smpi.executor.run_spmd`
and :class:`repro.api.Session` hand out goes through
:func:`~repro.smpi.intercept.wrap_communicator`, the one place that
applies metrics, fault injection and tracing (observer innermost,
injector outside it, tracer outermost); with none active it returns the
raw backend object.

SPMD correctness rules
----------------------
The protocol is *single program, multiple data*: the same driver function
runs on every rank, and the collectives only work if the ranks keep to a
shared schedule.  ``repro verify`` (:mod:`repro.verify`) checks these
rules statically (rule codes below) and at runtime; the contract itself
is:

* **Collective ordering** — every rank must issue the same collectives
  in the same program order, with matching roots.  A collective issued
  under a rank-dependent branch (``if comm.rank == 0: comm.bcast(...)``)
  deadlocks the other ranks — unless every arm of the branch issues the
  *matched* call, as the root/receiver split requires.  Statically flagged as ``SPMD001``;
  divergence between recorded per-rank schedules is what
  ``repro verify --schedule`` reports.
* **Nonblocking completion** — every request (``isend``/``irecv``) must
  reach ``wait()``/``test()`` (or ``cancel()``, for a receive abandoned
  on purpose); a dropped receive loses its message.  Statically flagged
  as ``SPMD002``; at runtime, un-awaited requests emit a
  :class:`ResourceWarning` on garbage collection and are reported by the
  leak detector (:mod:`repro.smpi.provenance`).
* **Tag band** — user point-to-point tags must stay below
  :data:`~repro.smpi.communicator.NB_TAG_BASE` (``1 << 24``); the band
  at and above it is reserved for library-internal traffic on backends
  without a private tag space (the threads backend keeps its internal
  traffic on negative tags).  A hardcoded tag inside the reserved band
  is ``SPMD003``.
* **Buffer aliasing** — an ``out=`` buffer passed to a collective must
  not alias that collective's input (``allreduce(x, SUM, out=x)``): the
  deterministic rank-ordered fold reads contributions while writing the
  output.  Statically flagged as ``SPMD004``.
* **Snapshot immutability** — arrays received from the zero-copy
  ``bcast`` fast lane may be *shared* read-only views; receivers must
  copy before mutating.  Writes to received payloads are flagged as
  ``SPMD005``.

The threads transport recycles delivered envelope shells through a
bounded arena (:class:`~repro.smpi.message.EnvelopePool`), so
steady-state request churn allocates no envelope objects;
:meth:`~repro.smpi.request.RecvRequest.wait` accepts ``timeout=`` and
raises a descriptive :class:`~repro.smpi.exceptions.DeadlockError` on
deadlocked waits instead of hanging.

Liveness and elasticity (threads backend)
-----------------------------------------
Each rank's mailbox doubles as a heartbeat publisher:
:meth:`World.heartbeat(rank) <repro.smpi.world.World.heartbeat>` bumps a
monotonic beat that :class:`~repro.health.HealthMonitor` reads to
classify peers as *alive*/*straggler*/*suspect*/*dead*
(:class:`~repro.config.HealthConfig` sets the thresholds).  A rank the
monitor declares dead is failed **proactively** through
:meth:`World.fail_rank <repro.smpi.world.World.fail_rank>` — blocked
peers wake with :class:`~repro.smpi.exceptions.FailedRankError`
immediately instead of waiting out the ``DeadlockError`` timeout — and a
rank that exits cleanly calls :meth:`World.retire_rank
<repro.smpi.world.World.retire_rank>` so its silence is never
misread as death.  :class:`~repro.health.ProgressDaemon` beats and runs
the monitor in the background every ``heartbeat_interval``.
:class:`~repro.health.ElasticSession` owns a whole world, drives one
session per rank through :func:`~repro.smpi.executor.fan_out` (the
thread fan-out :func:`run_spmd` uses) and rebuilds the world at a new
size mid-stream (``ElasticSession.rescale`` /
``RestartPolicy(mode="live")``).

Backends
--------
============ ========================================================
``threads``  The default :mod:`repro.smpi` substrate: one thread per
             rank, mailbox delivery, faithful traffic accounting.
``self``     :class:`~repro.smpi.selfcomm.SelfCommunicator` — a
             single rank with every collective short-circuited; zero
             overhead, no threads.  ``size`` must be 1.
``mpi4py``   Thin adapter over real MPI (requires the optional
             ``mpi4py`` package and an MPI launcher).
============ ========================================================

Use :func:`create_communicator` when you need communicator objects, or
:func:`run_backend` to run an SPMD function on a named backend::

    from repro.smpi import create_communicator, run_backend

    svd = ParSVDParallel(create_communicator("self"), solver=SolverConfig(K=10))

    results = run_backend("threads", 4, job)   # == run_spmd(4, job)

(:class:`repro.api.Session` wraps both calls behind one typed entry
point — ``Session.run(RunConfig(...), fn)`` — and is what the CLI,
examples and benchmarks use.)
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, Union

from .communicator import Communicator
from .exceptions import SmpiError
from .executor import run_spmd
from .intercept import wrap_communicator
from .mailbox import DEFAULT_TIMEOUT
from .selfcomm import SelfCommunicator
from .world import World

__all__ = ["BACKENDS", "DEFAULT_BACKEND", "create_communicator", "run_backend"]

#: Registered backend names, in preference order.
BACKENDS = ("threads", "self", "mpi4py")

#: Backend used when none is named.
DEFAULT_BACKEND = "threads"


def _check_name(name: str) -> None:
    if name not in BACKENDS:
        raise SmpiError(
            f"unknown communicator backend {name!r}; "
            f"available: {', '.join(BACKENDS)}"
        )


def create_communicator(
    name: str = DEFAULT_BACKEND,
    size: int = 1,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    mpi_comm: Any = None,
    irecv_buffer_bytes: Optional[int] = None,
) -> Union[Any, Tuple[Any, ...]]:
    """Create communicator(s) for the named backend.

    Parameters
    ----------
    name:
        One of :data:`BACKENDS`.
    size:
        Number of ranks.  ``"self"`` requires ``size == 1``; for
        ``"mpi4py"`` the size is dictated by the MPI launcher and ``size``
        (when > 1) is validated against it.
    timeout:
        Mailbox deadlock timeout for the ``"threads"`` backend.
    mpi_comm:
        Existing ``mpi4py`` communicator to wrap (``"mpi4py"`` only);
        defaults to ``COMM_WORLD``.
    irecv_buffer_bytes:
        Receive-buffer size preallocated per preposted ``irecv`` on the
        ``"mpi4py"`` adapter (its pickle-mode ``irecv`` truncates
        messages larger than the buffer); ``None`` keeps the adapter's
        default.  The in-process backends probe message sizes exactly and
        ignore it.  Set through :class:`repro.config.BackendConfig.
        irecv_buffer_bytes` when building sessions.

    Returns
    -------
    A single communicator — except ``"threads"`` with ``size > 1``, which
    returns a tuple of per-rank communicators sharing one
    :class:`~repro.smpi.world.World`; dispatch those to threads yourself or
    use :func:`run_backend` / :func:`repro.smpi.run_spmd`, which do it for
    you.
    """
    _check_name(name)
    if size < 1:
        raise SmpiError(f"communicator size must be positive, got {size}")
    if name == "self":
        if size != 1:
            raise SmpiError(
                f"the 'self' backend is single-rank; got size {size} "
                f"(use 'threads' or 'mpi4py' for multi-rank runs)"
            )
        return wrap_communicator(SelfCommunicator())
    if name == "mpi4py":
        from .mpi import Mpi4pyCommunicator

        mpi_kwargs = {}
        if irecv_buffer_bytes is not None:
            mpi_kwargs["irecv_buffer_bytes"] = irecv_buffer_bytes
        comm = Mpi4pyCommunicator(mpi_comm, **mpi_kwargs)
        if size > 1 and comm.size != size:
            raise SmpiError(
                f"requested {size} ranks but the MPI communicator has "
                f"{comm.size}; launch with 'mpiexec -n {size}'"
            )
        return wrap_communicator(comm)
    world = World(size, timeout=timeout)
    group = tuple(range(size))
    comms = tuple(
        wrap_communicator(Communicator(world, World.WORLD_CONTEXT, group, rank))
        for rank in range(size)
    )
    return comms[0] if size == 1 else comms


def run_backend(
    backend: str,
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    trace: bool = False,
    irecv_buffer_bytes: Optional[int] = None,
    **kwargs: Any,
) -> Any:
    """Run ``fn(comm, *args, **kwargs)`` SPMD-style on a named backend.

    A backend-polymorphic :func:`repro.smpi.run_spmd`: drivers (CLI,
    examples, benchmarks) select the substrate with a string and keep a
    single code path.  ``irecv_buffer_bytes`` configures the mpi4py
    adapter's preposted receive buffers (see :func:`create_communicator`);
    the in-process backends ignore it.

    Returns the rank-ordered list of per-rank results (``[fn(...)]`` for
    single-rank backends), or ``(results, tracers)`` when ``trace=True``.
    For ``"mpi4py"`` every participating process returns the full
    rank-ordered result list (a ``gather`` to rank 0, then a ``bcast``);
    run under an MPI launcher.
    """
    _check_name(backend)
    if backend == "threads":
        return run_spmd(size, fn, *args, timeout=timeout, trace=trace, **kwargs)
    comm = create_communicator(backend, size, irecv_buffer_bytes=irecv_buffer_bytes)
    if comm.size != size:
        # run_backend's size is an explicit request (unlike
        # create_communicator's default); a launcher mismatch must not
        # silently run at a different rank count.
        raise SmpiError(
            f"requested {size} ranks but the MPI launcher provides "
            f"{comm.size}; launch with 'mpiexec -n {size}'"
        )
    traced = wrap_communicator(comm, trace=trace)
    result = fn(traced, *args, **kwargs)
    if backend == "self":
        results = [result]
    else:
        results = comm.bcast(comm.gather(result, root=0), root=0)
    return (results, [traced]) if trace else results
