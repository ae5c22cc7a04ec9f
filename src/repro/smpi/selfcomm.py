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

from typing import Any, List, Optional, Tuple

import numpy as np

from .derived import as_row_block, fold_output_usable
from .exceptions import DeadlockError, RankError, SmpiError, TagError
from .message import Envelope, take_payload
from .reduction import ReduceOp
from .request import Request, SendRequest

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

    def cancel(self) -> None:
        """Mark the request as abandoned; waiting afterwards is an error."""
        if self._done:
            raise SmpiError("cannot cancel a completed receive request")
        self._done = True
        self._payload = None


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

    # -- collectives (identity short-circuits) ------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_peer(root, "root")
        return obj

    def gather(self, obj: Any, root: int = 0) -> List[Any]:
        self._check_peer(root, "root")
        return [obj]

    def gatherv_rows(self, sendbuf: np.ndarray, root: int = 0) -> np.ndarray:
        self._check_peer(root, "root")
        return as_row_block(sendbuf)

    def allreduce(
        self, obj: Any, op: ReduceOp, out: Optional[np.ndarray] = None
    ) -> Any:
        if fold_output_usable(op, out, [obj]):
            return op.fold_into(out, [obj])
        return op.reduce_sequence([obj])

    def barrier(self) -> None:
        return None

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
