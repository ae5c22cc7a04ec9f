"""SPMD executor: run a function on ``n`` ranks, one thread per rank.

This replaces ``mpiexec -n <p> python script.py``.  The target function
receives its rank's :class:`~repro.smpi.communicator.Communicator` as first
argument, exactly as an mpi4py program receives ``MPI.COMM_WORLD``.

Threads (not processes) are used because the workload is NumPy/BLAS-bound —
which releases the GIL — and, more importantly, because the goal of the
substrate is *algorithmic fidelity* (identical communication pattern and
numerics to an MPI run), not single-machine speedup; parallel performance is
studied with the calibrated model in :mod:`repro.perf`.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, List, Optional, Sequence

from .communicator import Communicator
from .exceptions import FailedRankError, SmpiError
from .intercept import wrap_communicator
from .mailbox import DEFAULT_TIMEOUT
from .world import World

__all__ = ["run_spmd", "fan_out", "ParallelFailure", "RankFailure"]


class RankFailure:
    """Captured exception from one rank: rank id, exception, traceback text."""

    def __init__(self, rank: int, exception: BaseException, tb: str) -> None:
        self.rank = rank
        self.exception = exception
        self.traceback = tb

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankFailure(rank={self.rank}, exception={self.exception!r})"


class ParallelFailure(SmpiError):
    """One or more ranks raised during an SPMD run.

    Attributes
    ----------
    failures:
        List of :class:`RankFailure`, rank-ordered.
    root_cause:
        The first failure's exception that is not a peer's secondary
        :class:`FailedRankError` (else the first failure's).
    """

    def __init__(self, failures: Sequence[RankFailure]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} rank(s) failed during SPMD run:"]
        for failure in self.failures:
            first = str(failure.exception).splitlines() or [""]
            lines.append(
                f"  rank {failure.rank}: "
                f"{type(failure.exception).__name__}: {first[0]}"
            )
        # Prefer a root-cause traceback: when one rank dies its peers all
        # unwind with secondary FailedRankErrors — show the original crash.
        primary = next(
            (
                f
                for f in self.failures
                if not isinstance(f.exception, FailedRankError)
            ),
            self.failures[0],
        )
        self.root_cause = primary.exception
        lines.append(
            f"--- rank {primary.rank} traceback (root cause) ---"
        )
        lines.append(primary.traceback)
        super().__init__("\n".join(lines))


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    trace: bool = False,
    **kwargs: Any,
) -> Any:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks.

    Parameters
    ----------
    nprocs:
        Number of SPMD ranks.
    fn:
        Rank entry point; first positional argument is the communicator.
    timeout:
        Seconds each blocking receive may wait (deadlock detection) and the
        join timeout per thread.
    trace:
        Wrap every rank's communicator in a :class:`CommTracer`; the call
        then returns ``(results, tracers)``.

    Returns
    -------
    results:
        ``[fn result of rank 0, ..., fn result of rank nprocs-1]``
        (or ``(results, tracers)`` when ``trace=True``).

    Raises
    ------
    ParallelFailure
        If any rank raises; carries all per-rank failures.
    """
    if nprocs <= 0:
        raise SmpiError(f"nprocs must be positive, got {nprocs}")

    world = World(nprocs, timeout=timeout)
    group = tuple(range(nprocs))
    # The same concerns create_communicator applies; with trace=True the
    # CommTracer is the outermost layer, i.e. the comm fn receives.
    comms: List[Any] = [
        wrap_communicator(
            Communicator(world, World.WORLD_CONTEXT, group, rank), trace=trace
        )
        for rank in range(nprocs)
    ]
    results = fan_out(
        world,
        nprocs,
        lambda rank: fn(comms[rank], *args, **kwargs),
        timeout=timeout,
    )
    return (results, comms) if trace else results


def fan_out(
    world: World,
    nprocs: int,
    fn: Callable[[int], Any],
    *,
    timeout: float = DEFAULT_TIMEOUT,
) -> List[Any]:
    """Run ``fn(rank)`` for every rank of ``world``, one thread per rank,
    and return the rank-ordered results.

    A rank that raises anything but :class:`FailedRankError` is failed in
    ``world`` at once, so peers blocked on it wake with
    :class:`FailedRankError` instead of waiting out the deadlock timeout.
    Every failure is collected into one :class:`ParallelFailure`.  A
    single rank runs inline (cheaper, and keeps debugging trivial).
    """
    results: List[Any] = [None] * nprocs
    failures: List[Optional[RankFailure]] = [None] * nprocs

    if nprocs == 1:
        try:
            results[0] = fn(0)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            raise ParallelFailure(
                [RankFailure(0, exc, traceback.format_exc())]
            ) from exc
        return results

    def worker(rank: int) -> None:
        try:
            results[rank] = fn(rank)
        except BaseException as exc:  # noqa: BLE001 - collected below
            failures[rank] = RankFailure(rank, exc, traceback.format_exc())
            # Secondary FailedRankErrors (a rank unwinding because a
            # *peer* died) don't re-mark — the unwinding rank is healthy,
            # just cascaded.
            if not isinstance(exc, FailedRankError):
                world.fail_rank(rank, exc)

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"smpi-rank-{rank}")
        for rank in range(nprocs)
    ]
    for thread in threads:
        thread.start()
    # Grace period beyond the mailbox timeout: a deadlocked rank needs
    # `timeout` seconds to raise DeadlockError and unwind before the join
    # can succeed.
    join_deadline = timeout + 5.0
    for thread in threads:
        thread.join(timeout=join_deadline)
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise SmpiError(
            f"SPMD threads did not terminate within {join_deadline}s: "
            f"{stuck} (likely deadlock; see smpi.DeadlockError timeouts)"
        )

    collected = [failure for failure in failures if failure is not None]
    if collected:
        raise ParallelFailure(collected)
    return results
