"""``SelfCommunicator`` — a zero-overhead single-rank communicator.

The parallel algorithms run unmodified on one rank (serial validation,
notebooks, the ``"self"`` backend of
:func:`repro.smpi.factory.create_communicator`) without a
:class:`~repro.smpi.world.World`'s mailboxes and locks:
``SelfCommunicator`` short-circuits every collective to the
identity: no mailboxes, no locks, no threads, no copies for collectives
(mirroring MPI, where a root's ``bcast``/``gather`` contribution is its own
buffer, not wire traffic).  Point-to-point *self*-sends still snapshot the
payload (value semantics) through a plain FIFO, so code that posts to itself
behaves exactly as under the threaded backend.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .derived import fold_output_usable, rows_output_usable
from .exceptions import DeadlockError, RankError, SmpiError, TagError
from .message import Envelope, copy_payload, take_payload
from .reduction import ReduceOp
from .request import CollectiveRequest, Request, SendRequest

__all__ = ["SelfCommunicator"]

_ANY = -1


class _SelfRecvRequest(Request):
    """Pending receive against the communicator's own FIFO."""

    def __init__(self, comm: "SelfCommunicator", source: int, tag: int) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._payload: Any = None

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._done:
            self._payload = self._comm._take(self._source, self._tag)
            self._done = True
        return self._payload

    def test(self) -> Tuple[bool, Optional[Any]]:
        if self._done:
            return True, self._payload
        envelope = self._comm._poll(self._source, self._tag)
        if envelope is None:
            return False, None
        self._payload = take_payload(envelope)
        self._done = True
        return True, self._payload


class SelfCommunicator:
    """Single-rank communicator with all collectives short-circuited.

    Implements the full communicator protocol documented in
    :mod:`repro.smpi.factory`; ``rank == 0`` and ``size == 1`` always.
    """

    rank = 0
    size = 1

    def __init__(self) -> None:
        self._queue: List[Envelope] = []

    # -- mpi4py-style accessors ------------------------------------------
    def Get_rank(self) -> int:
        return 0

    def Get_size(self) -> int:
        return 1

    # -- helpers -----------------------------------------------------------
    def _check_peer(self, peer: int, what: str) -> None:
        if peer != 0:
            raise RankError(
                f"{what} rank {peer} outside [0, 1) on a single-rank "
                f"communicator"
            )

    def _check_tag(self, tag: int) -> None:
        if tag < 0:
            raise TagError(
                f"user tags must be nonnegative (negative tags are reserved "
                f"for collectives), got {tag}"
            )

    def _take(self, source: int, tag: int) -> Any:
        envelope = self._poll(source, tag)
        if envelope is None:
            # With one rank no other sender can ever satisfy the receive;
            # surface the inevitable hang immediately instead of timing out.
            raise DeadlockError(
                f"recv(source={source}, tag={tag}) on a single-rank "
                f"communicator with no matching queued self-send"
            )
        return take_payload(envelope)

    def _poll(self, source: int, tag: int) -> Optional[Envelope]:
        for index, envelope in enumerate(self._queue):
            if envelope.matches(source, tag):
                return self._queue.pop(index)
        return None

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "dest")
        self._check_tag(tag)
        self._queue.append(Envelope.make(source=0, tag=tag, payload=obj))

    def recv(self, source: int = _ANY, tag: int = _ANY) -> Any:
        if source != _ANY:
            self._check_peer(source, "source")
        if tag != _ANY:
            self._check_tag(tag)
        return self._take(source, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> SendRequest:
        self.send(obj, dest, tag)
        return SendRequest()

    def irecv(self, source: int = _ANY, tag: int = _ANY) -> _SelfRecvRequest:
        if source != _ANY:
            self._check_peer(source, "source")
        if tag != _ANY:
            self._check_tag(tag)
        return _SelfRecvRequest(self, source, tag)

    def sendrecv(self, obj: Any, dest: int, source: int) -> Any:
        self._check_peer(dest, "dest")
        self._check_peer(source, "source")
        return copy_payload(obj)

    def iprobe(self, source: int = _ANY, tag: int = _ANY) -> bool:
        if source != _ANY:
            self._check_peer(source, "source")
        if tag != _ANY:
            self._check_tag(tag)
        return any(e.matches(source, tag) for e in self._queue)

    # -- collectives (identity short-circuits) ------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_peer(root, "root")
        return obj

    def gather(self, obj: Any, root: int = 0) -> List[Any]:
        self._check_peer(root, "root")
        return [obj]

    def allgather(self, obj: Any) -> List[Any]:
        return [obj]

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        self._check_peer(root, "root")
        if objs is None or len(objs) != 1:
            got = "None" if objs is None else str(len(objs))
            raise SmpiError(f"scatter root needs exactly 1 item, got {got}")
        return objs[0]

    def gatherv_rows(
        self,
        sendbuf: np.ndarray,
        root: int = 0,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._check_peer(root, "root")
        arr = np.asarray(sendbuf)
        # Shared usability predicate; an unusable ``out`` degrades to the
        # zero-copy identity (returning the send buffer), not allocation.
        if arr.ndim == 2 and rows_output_usable(
            arr.shape[0], arr.shape[1], arr.dtype, out
        ):
            out[...] = arr
            return out
        return arr

    def scatterv_rows(
        self, sendbuf: Optional[np.ndarray], counts: Sequence[int], root: int = 0
    ) -> np.ndarray:
        if len(counts) != 1:
            raise SmpiError(
                f"counts must have one entry per rank, got {len(counts)} "
                f"for size 1"
            )
        if sendbuf is None:
            raise SmpiError("scatterv_rows root requires a send buffer")
        sendbuf = np.asarray(sendbuf)
        if sendbuf.shape[0] != int(counts[0]):
            raise SmpiError(
                f"send buffer has {sendbuf.shape[0]} rows, counts sum to "
                f"{int(counts[0])}"
            )
        return sendbuf

    def reduce(self, obj: Any, op: ReduceOp, root: int = 0) -> Any:
        self._check_peer(root, "root")
        return op.reduce_sequence([obj])

    def allreduce(
        self, obj: Any, op: ReduceOp, out: Optional[np.ndarray] = None
    ) -> Any:
        if fold_output_usable(out, [obj]):
            return op.fold_into(out, [obj])
        return op.reduce_sequence([obj])

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        if len(objs) != 1:
            raise SmpiError(f"alltoall needs exactly 1 item, got {len(objs)}")
        return [objs[0]]

    def scan(self, obj: Any, op: ReduceOp) -> Any:
        return op.reduce_sequence([obj])

    def exscan(self, obj: Any, op: ReduceOp) -> Any:
        # MPI leaves the rank-0 exscan buffer undefined; mirror the threaded
        # backend, which returns None there.
        return None

    def reduce_scatter(self, objs: Sequence[Any], op: ReduceOp) -> Any:
        if len(objs) != 1:
            raise SmpiError(
                f"reduce_scatter needs exactly 1 block, got {len(objs)}"
            )
        return op.reduce_sequence([objs[0]])

    def barrier(self) -> None:
        return None

    # -- nonblocking collectives (immediately complete) ----------------------
    def ibcast(self, obj: Any, root: int = 0) -> CollectiveRequest:
        self._check_peer(root, "root")
        return CollectiveRequest.completed(obj)

    def igatherv_rows(
        self,
        sendbuf: np.ndarray,
        root: int = 0,
        out: Optional[np.ndarray] = None,
    ) -> CollectiveRequest:
        return CollectiveRequest.completed(
            self.gatherv_rows(sendbuf, root, out=out)
        )

    def iallreduce(
        self, obj: Any, op: ReduceOp, out: Optional[np.ndarray] = None
    ) -> CollectiveRequest:
        return CollectiveRequest.completed(self.allreduce(obj, op, out=out))

    def ialltoall(self, objs: Sequence[Any]) -> CollectiveRequest:
        return CollectiveRequest.completed(self.alltoall(objs))

    # -- communicator management -------------------------------------------
    def split(
        self, color: Optional[int], key: int = 0
    ) -> Optional["SelfCommunicator"]:
        if color is None:
            return None
        return SelfCommunicator()

    def dup(self) -> "SelfCommunicator":
        return SelfCommunicator()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SelfCommunicator(rank=0, size=1)"
