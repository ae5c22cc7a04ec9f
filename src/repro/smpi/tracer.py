"""Traffic accounting for communicators.

A :class:`CommTracer` is a transparent proxy for a
:class:`~repro.smpi.communicator.Communicator` that records, per operation,
the payload bytes the *algorithm* handed to the communication layer.  These
records feed the α–β communication cost model in :mod:`repro.perf` that
reproduces the paper's weak-scaling study: the model needs "how many bytes
does one APMOS step gather/broadcast at p ranks", and the tracer measures
exactly that on small, runnable rank counts so the analytic extrapolation
can be validated against it.

Accounting conventions (bytes are payload sizes from
:func:`repro.smpi.message.payload_nbytes`):

* ``send``/``recv``: size of the object sent/received.
* ``bcast``: root records ``(size-1) * nbytes``; receivers record ``nbytes``.
* ``gather``/``gatherv``: senders record ``nbytes``; root records the sum
  of received contributions (its own, memory-local copy is not traffic).
* ``allreduce``: every rank records twice its contribution (up and down).
* ``barrier``: zero bytes, one record (latency-only event).

The tracer is one concern on the shared interception layer
(:mod:`repro.smpi.intercept`): a per-op accounting table applies these
conventions, and a nonblocking receive records from the ``wait``/
``test`` call that completes its request.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .intercept import OPS, InterceptedCommunicator, InterceptedRequest, Op
from .message import payload_nbytes

__all__ = ["COLLECTIVE_OPS", "CommRecord", "CommTracer", "TrafficSummary"]

#: Operation names recorded for collective calls — the subset that must
#: agree in kind and order across every rank of an SPMD program, and
#: therefore the stream :meth:`CommTracer.schedule` exports for the
#: cross-rank conformance checker in :mod:`repro.verify.schedule`.
COLLECTIVE_OPS = frozenset(op.record for op in OPS.values()) - {
    "send",
    "recv",
}


@dataclasses.dataclass(frozen=True)
class CommRecord:
    """One recorded communication event on one rank.

    ``root``, ``dtype`` and ``shape`` describe the collective's schedule
    (for rooted collectives, and array payloads respectively) and feed
    the cross-rank conformance checker; they stay ``None`` for events
    where they do not apply (p2p traffic, non-array payloads).  For
    gather-flavoured ops the recorded shape is this rank's *contribution*
    (row counts legitimately differ across ranks).

    ``t_start`` (a ``time.perf_counter`` stamp) and ``duration_s`` carry
    wall-clock data: for blocking ops the duration of the call, for
    nonblocking receive-side records the time blocked in the completing
    ``wait``/``test``.  Both default (``None``/``0.0``) so records
    serialized before these fields existed still deserialize."""

    op: str
    nbytes: int
    peer: Optional[int] = None
    root: Optional[int] = None
    dtype: Optional[str] = None
    shape: Optional[tuple] = None
    t_start: Optional[float] = None
    duration_s: float = 0.0


@dataclasses.dataclass
class TrafficSummary:
    """Aggregate view of a rank's traffic.

    ``total_seconds``/``seconds_by_op`` roll up the records' wall-clock
    durations (communication time, per op and overall) — the measured
    counterpart to the byte counts the α–β model consumes.  Both default
    so the pre-timing constructor signature keeps working."""

    events: int
    total_bytes: int
    by_op: Dict[str, int]
    total_seconds: float = 0.0
    seconds_by_op: Dict[str, float] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Sequence[CommRecord]) -> "TrafficSummary":
        by_op: Dict[str, int] = {}
        seconds_by_op: Dict[str, float] = {}
        for r in records:
            by_op[r.op] = by_op.get(r.op, 0) + r.nbytes
            seconds_by_op[r.op] = seconds_by_op.get(r.op, 0.0) + r.duration_s
        return cls(
            events=len(records),
            total_bytes=sum(by_op.values()),
            by_op=by_op,
            total_seconds=sum(seconds_by_op.values()),
            seconds_by_op=seconds_by_op,
        )


class _Call(NamedTuple):
    """The record name and time window of one traced call."""

    op: str
    t_start: float
    duration_s: float


def _others(items: Sequence[Any], rank: int) -> int:
    """Bytes of every item but this rank's own (a local copy, not traffic)."""
    return sum(payload_nbytes(item) for peer, item in enumerate(items) if peer != rank)


class CommTracer(InterceptedCommunicator):
    """Recording proxy around a communicator (same call surface).

    A communicator split or duplicated from a traced one is traced into
    the same :attr:`records`, so this rank's traffic on every
    communicator it derived shows in :meth:`summary` and
    :meth:`bytes_for`; :meth:`schedule` keeps to this communicator."""

    def __init__(self, comm: Any) -> None:
        super().__init__(comm)
        self.records: List[CommRecord] = []
        self._collectives: List[CommRecord] = []

    def _rewrap(self, comm: Any) -> "CommTracer":
        derived = CommTracer(comm)
        derived.records = self.records
        return derived

    def _record(
        self, call: _Call, nbytes: int, peer: Optional[int] = None,
        root: Optional[int] = None, obj: Any = None,
    ) -> None:
        array = isinstance(obj, np.ndarray)
        record = CommRecord(
            op=call.op,
            nbytes=int(nbytes),
            peer=peer,
            root=root,
            dtype=str(obj.dtype) if array else None,
            shape=tuple(int(dim) for dim in obj.shape) if array else None,
            t_start=call.t_start,
            duration_s=call.duration_s,
        )
        self.records.append(record)
        if record.op in COLLECTIVE_OPS:
            self._collectives.append(record)

    def _wrap(self, name: str, op: Op, target: Any) -> Any:
        account = getattr(self, f"_account_{name}")
        record = op.record
        posted = op.nonblocking or op.droppable

        def traced(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            result = target(*args, **kwargs)
            dt = 0.0 if posted else time.perf_counter() - t0
            later = account(_Call(record, t0, dt), result, *args, **kwargs)
            if later is None:
                return result
            return InterceptedRequest(
                result, lambda out, t1, dt1: later(_Call(record, t1, dt1), out)
            )

        return traced

    # -- per-op accounting ---------------------------------------------------
    # ``_account_<method>(call, result, *args, **kwargs)`` takes the
    # method's own arguments and records this rank's bytes.  Send-side
    # records are written when the call returns, with no duration (the
    # payload is handed over at post time).  One that returns
    # ``later(call, result)`` has the request wrapped: the receive side is
    # recorded with the window of the wait/test that completes it.

    def _account_send(self, call, _, obj, dest, tag=0):
        self._record(call, payload_nbytes(obj), peer=dest)

    _account_isend = _account_send

    def _account_recv(self, call, obj, source=-1, tag=-1):
        self._record(call, payload_nbytes(obj), peer=source)

    def _account_irecv(self, call, _, source=-1, tag=-1):
        return lambda done, obj: self._account_recv(done, obj, source)

    def _account_bcast(self, call, out, obj, root=0):
        if self.rank == root:
            fanout = payload_nbytes(obj) * (self.size - 1)
            self._record(call, fanout, root=root, obj=obj)
        else:
            self._record(call, payload_nbytes(out), root=root, obj=out)

    def _account_gather(self, call, out, obj, root=0):
        if self.rank == root:
            self._record(call, _others(out, root), root=root, obj=obj)
        else:
            self._record(call, payload_nbytes(obj), root=root, obj=obj)

    def _account_gatherv_rows(self, call, stacked, sendbuf, root=0):
        own = payload_nbytes(sendbuf)
        if self.rank == root:
            received = max(payload_nbytes(stacked) - own, 0)
            self._record(call, received, root=root, obj=sendbuf)
        else:
            self._record(call, own, root=root, obj=sendbuf)

    def _account_allreduce(self, call, _, obj, op, out=None):
        # up: own contribution; down: the reduced result
        self._record(call, payload_nbytes(obj) * 2, obj=obj)

    def _account_barrier(self, call, _):
        self._record(call, 0)

    # -- reporting --------------------------------------------------------------
    def summary(self) -> TrafficSummary:
        """Aggregate events/bytes recorded so far on this rank."""
        return TrafficSummary.from_records(self.records)

    def schedule(self) -> List[CommRecord]:
        """This rank's *collective* op stream on this communicator (not
        on those split from it), in issue order.

        The SPMD contract requires every rank to produce the same stream
        (same kinds, same order, compatible roots/dtypes); the cross-rank
        conformance checker (:mod:`repro.verify.schedule`) aligns these
        per-rank streams and reports the first divergence.  Point-to-point
        traffic is excluded — it legitimately differs per rank.  Every
        collective is blocking, so its record is written when the call
        returns and the stream is in issue order on every lane.
        """
        return list(self._collectives)

    def reset(self) -> None:
        """Discard all records (e.g. between benchmark phases)."""
        self.records.clear()
        self._collectives.clear()

    def bytes_for(self, op: str) -> int:
        """Total bytes recorded under operation name ``op``."""
        return sum(r.nbytes for r in self.records if r.op == op)
