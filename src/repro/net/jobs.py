"""Job bookkeeping for the serving frontend.

``POST /v1/query`` maps each accepted query onto a *job*: the engine's
:class:`~repro.serving.engine.QueryTicket` plus an :class:`asyncio.Event`
that long-polling ``GET /v1/jobs/{id}`` handlers wait on.  The split of
responsibilities is deliberate: tickets are settled on the engine's
executor thread (a flush), while asyncio events may only be set on the
event-loop thread — so settlement is *observed* by the loop (via
:meth:`JobTable.signal_completed`, called after every engine call)
rather than pushed from the engine thread.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import secrets
from typing import Dict, Optional

__all__ = ["Job", "JobTable"]


class Job:
    """One submitted query as the HTTP surface sees it.  ``npy`` records
    whether its payload came in the ``npy`` wire form, which its array
    result then answers in."""

    __slots__ = ("id", "tenant", "ticket", "npy", "event")

    def __init__(self, job_id: str, tenant: str, ticket, npy: bool) -> None:
        self.id = job_id
        self.tenant = tenant
        self.ticket = ticket
        self.npy = npy
        self.event = asyncio.Event()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.ticket.done else "pending"
        return f"Job({self.id}, tenant={self.tenant!r}, {state})"


class JobTable:
    """Loop-thread-only registry of live jobs, with bounded retention.

    Completed jobs are retained (so a client can fetch its result after
    the long-poll returned) but evicted oldest-first beyond ``capacity``.
    Pending jobs are never evicted — a job whose ticket has not been
    fulfilled must stay claimable, so under pathological backlog the
    table grows past capacity rather than dropping work.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._jobs: "collections.OrderedDict[str, Job]" = (
            collections.OrderedDict()
        )
        # Jobs whose ticket may still be pending: the subset
        # signal_completed() has to scan.  Moved out once signalled.
        self._unsignalled: Dict[str, Job] = {}
        self._seq = itertools.count(1)
        self._created = 0
        self._evicted = 0

    def create(self, tenant: str, ticket, npy: bool) -> Job:
        """Register a fresh job for ``ticket`` and return it; ``npy``
        says whether its payload came in the ``npy`` wire form."""
        job_id = f"j{next(self._seq):06d}-{secrets.token_hex(3)}"
        job = Job(job_id, tenant, ticket, npy)
        self._jobs[job_id] = job
        self._created += 1
        if ticket.done:
            job.event.set()
        else:
            self._unsignalled[job_id] = job
        self._evict()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def signal_completed(self) -> int:
        """Set the events of jobs whose tickets a flush just settled
        (answered or failed); returns how many were signalled.  Loop
        thread only."""
        signalled = [
            job_id
            for job_id, job in self._unsignalled.items()
            if job.ticket.done
        ]
        for job_id in signalled:
            job = self._unsignalled.pop(job_id)
            job.event.set()
        if signalled:
            self._evict()
        return len(signalled)

    def _evict(self) -> None:
        # Oldest-first over *signalled* jobs only (insertion order is
        # creation order; pending jobs are skipped, not dropped).
        if len(self._jobs) <= self.capacity:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= self.capacity:
                break
            if job_id in self._unsignalled:
                continue
            del self._jobs[job_id]
            self._evicted += 1

    def __len__(self) -> int:
        return len(self._jobs)

    def stats(self) -> dict:
        """Counters for ``/metrics``."""
        return {
            "created": self._created,
            "live": len(self._jobs),
            "pending": len(self._unsignalled),
            "evicted": self._evicted,
        }
