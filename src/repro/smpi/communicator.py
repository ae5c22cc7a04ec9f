"""Communicators: point-to-point and collective operations.

The public surface mirrors mpi4py's lowercase ("generic object") methods,
which is what the paper's listings use::

    wglobal = comm.gather(wlocal, root=0)
    x = comm.bcast(x, root=0)
    comm.send(block, dest=rank, tag=rank + 10)
    qpiece = comm.recv(source=0, tag=comm.rank + 10)

Collectives are deliberately implemented *on top of* point-to-point sends so
that (a) there is a single, well-tested delivery path and (b) a traffic
tracer wrapping the communicator sees exactly the bytes the algorithm moves.

Semantics guaranteed (and exercised by the test suite):

* value semantics — payloads are snapshotted at send time; mutating a sent
  array never affects the receiver;
* non-overtaking delivery per ``(source, tag)`` pair;
* deterministic reduction order (rank-ascending left fold);
* context isolation — ``split``/``dup`` communicators never cross-match
  traffic with their parent.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from .derived import DerivedCollectivesMixin, as_row_block
from .exceptions import RankError, SmpiError, TagError
from .message import Envelope, freeze_payload, take_payload
from .request import RecvRequest, SendRequest
from .world import World

__all__ = ["ANY_SOURCE", "ANY_TAG", "NB_TAG_BASE", "Communicator"]

#: Wildcard source for ``recv`` (matches any sender).
ANY_SOURCE = -1
#: Wildcard tag for ``recv`` (matches any tag).
ANY_TAG = -1
#: First tag of the band reserved for library-internal traffic on backends
#: without a private tag space; application tags stay below it (``SPMD003``).
NB_TAG_BASE = 1 << 24

# Internal tag space for collective plumbing.  User tags must be >= 0, so
# negative tags can never collide with application traffic.
_TAG_BCAST = -10
_TAG_GATHER = -11
_TAG_BARRIER_IN = -13
_TAG_BARRIER_OUT = -14
_TAG_GATHERV = -18


class Communicator(DerivedCollectivesMixin):
    """A group of ranks that can exchange messages within one context.

    Each SPMD thread holds its *own* ``Communicator`` instance; instances of
    the same group/context share mailboxes through the :class:`World`.

    Attributes
    ----------
    rank:
        This process's rank within the communicator, ``0 <= rank < size``.
    size:
        Number of ranks in the communicator.
    """

    def __init__(
        self,
        world: World,
        context: int,
        group: Sequence[int],
        rank: int,
    ) -> None:
        group = tuple(int(g) for g in group)
        if len(set(group)) != len(group):
            raise SmpiError(f"group contains duplicate world ranks: {group}")
        if not (0 <= rank < len(group)):
            raise RankError(f"rank {rank} outside group of size {len(group)}")
        self._world = world
        self._context = context
        self._group = group
        self.rank = rank
        self.size = len(group)

    # -- mpi4py-style accessors ------------------------------------------
    def Get_rank(self) -> int:
        """mpi4py-compatible alias for :attr:`rank`."""
        return self.rank

    def Get_size(self) -> int:
        """mpi4py-compatible alias for :attr:`size`."""
        return self.size

    # -- health plumbing ---------------------------------------------------
    @property
    def world(self) -> World:
        """The shared :class:`World` backing this communicator — the
        attachment point for heartbeat/health monitoring."""
        return self._world

    @property
    def world_rank(self) -> int:
        """This rank's world rank (identity on the world communicator)."""
        return self._group[self.rank]

    # -- helpers -----------------------------------------------------------
    def _check_peer(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.size):
            raise RankError(
                f"{what} rank {peer} outside [0, {self.size}) "
                f"on communicator of size {self.size}"
            )

    def _check_tag(self, tag: int) -> None:
        if tag < 0:
            raise TagError(
                f"user tags must be nonnegative (negative tags are reserved "
                f"for collectives), got {tag}"
            )

    def _mailbox_of(self, comm_rank: int):
        return self._world.mailbox(self._context, self._group[comm_rank])

    def _post(self, dest: int, tag: int, payload: Any) -> None:
        envelope = Envelope.make(source=self.rank, tag=tag, payload=payload)
        self._mailbox_of(dest).put(envelope)

    def _take(self, source: int, tag: int) -> Any:
        envelope = self._mailbox_of(self.rank).get(source, tag)
        return take_payload(envelope)

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking send of a generic object (buffered; returns immediately)."""
        self._check_peer(dest, "dest")
        self._check_tag(tag)
        self._post(dest, tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; wildcards :data:`ANY_SOURCE` / :data:`ANY_TAG`."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        if tag != ANY_TAG:
            self._check_tag(tag)
        return self._take(source, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> SendRequest:
        """Nonblocking send; the returned request is already complete."""
        self.send(obj, dest, tag)
        return SendRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Nonblocking receive; complete it with ``wait()`` or ``test()``."""
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        if tag != ANY_TAG:
            self._check_tag(tag)
        return RecvRequest(self._mailbox_of(self.rank), source, tag)

    # -- collectives ---------------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the value.

        The root returns its own object unchanged (as mpi4py does); other
        ranks receive an independent snapshot.

        Snapshot-once fast lane: array (and tuple-of-array) payloads are
        frozen *once* (one copy, ``writeable=False``) and that immutable
        snapshot is shared by all ``p - 1`` envelopes — instead of one deep
        copy per peer.  Value semantics hold because neither the root
        (which keeps its original) nor any receiver (the snapshot is
        read-only) can mutate what the others observe.  Payloads that
        cannot be frozen (mutable containers, arbitrary objects) fall back
        to the per-peer deep copy.
        """
        self._check_peer(root, "root")
        if self.size == 1:
            return obj
        if self.rank == root:
            snapshot, shareable = freeze_payload(obj)
            for peer in range(self.size):
                if peer != root:
                    if shareable:
                        envelope = Envelope.presnapshotted(
                            self.rank, _TAG_BCAST, snapshot
                        )
                    else:
                        envelope = Envelope.make(self.rank, _TAG_BCAST, obj)
                    self._mailbox_of(peer).put(envelope)
            return obj
        return self._take(root, _TAG_BCAST)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per rank into a rank-ordered list at ``root``.

        Non-root ranks return ``None``, as in mpi4py.
        """
        self._check_peer(root, "root")
        if self.size == 1:
            return [obj]
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[root] = obj
            for peer in range(self.size):
                if peer != root:
                    envelope = self._mailbox_of(self.rank).get(peer, _TAG_GATHER)
                    out[peer] = take_payload(envelope)
            return out
        self._post(root, _TAG_GATHER, obj)
        return None

    # (allreduce comes from DerivedCollectivesMixin; gatherv_rows is
    # overridden below with a zero-copy assembly path.)

    def gatherv_rows(
        self, sendbuf: np.ndarray, root: int = 0
    ) -> Optional[np.ndarray]:
        """Gather per-rank row blocks, assembled directly into one buffer.

        Fast-lane override of the generic mixin implementation: row counts
        are exchanged once (a tiny int gather), the root allocates the full
        ``(sum_i M_i, n)`` result, and every remote block is copied
        straight from its envelope snapshot into the right row slice.  No
        list of blocks is held and no ``np.concatenate`` re-copy happens.
        """
        self._check_peer(root, "root")
        arr = as_row_block(sendbuf)
        # One tiny header gather carries each block's row count and dtype:
        # the root sizes (and dtype-promotes, matching the generic mixin /
        # np.concatenate behavior) the output before any block arrives.
        headers = self.gather((int(arr.shape[0]), arr.dtype.str), root=root)
        if self.rank != root:
            self._post(root, _TAG_GATHERV, arr)
            return None
        assert headers is not None
        counts = [count for count, _ in headers]
        total = int(sum(counts))
        dtype = np.result_type(*[np.dtype(d) for _, d in headers])
        out = np.empty((total, arr.shape[1]), dtype=dtype)
        offsets = [0]
        for count in counts:
            offsets.append(offsets[-1] + count)
        out[offsets[root] : offsets[root + 1]] = arr
        for peer in range(self.size):
            if peer == root:
                continue
            envelope = self._mailbox_of(self.rank).get(peer, _TAG_GATHERV)
            block = np.asarray(take_payload(envelope))
            if block.shape != (counts[peer], arr.shape[1]):
                raise SmpiError(
                    f"gatherv_rows: rank {peer} announced "
                    f"{counts[peer]} x {arr.shape[1]} rows but sent "
                    f"{block.shape}"
                )
            out[offsets[peer] : offsets[peer + 1]] = block
        return out

    def barrier(self) -> None:
        """Synchronise all ranks (fan-in to rank 0, fan-out back)."""
        if self.size == 1:
            return
        if self.rank == 0:
            for peer in range(1, self.size):
                take_payload(
                    self._mailbox_of(self.rank).get(peer, _TAG_BARRIER_IN)
                )
            for peer in range(1, self.size):
                self._post(peer, _TAG_BARRIER_OUT, None)
        else:
            self._post(0, _TAG_BARRIER_IN, None)
            self._take(0, _TAG_BARRIER_OUT)

    # -- communicator management -------------------------------------------
    def split(self, color: Optional[int], key: int = 0) -> Optional["Communicator"]:
        """Partition the communicator by ``color``; order ranks by ``key``.

        Ranks passing ``color=None`` (MPI's ``MPI_UNDEFINED``) receive
        ``None``.  Within each color, ranks are ordered by ``(key, old
        rank)``.  Collective over the parent communicator.
        """
        contributions = self.gather((color, key, self.rank), root=0)
        if self.rank == 0:
            assert contributions is not None
            colors = sorted(
                {c for (c, _, _) in contributions if c is not None}
            )
            contexts = self._world.allocate_contexts(max(len(colors), 1))
            plan = {}
            for context_id, c in zip(contexts, colors):
                members = sorted(
                    (
                        (k, old_rank)
                        for (cc, k, old_rank) in contributions
                        if cc == c
                    )
                )
                group = tuple(self._group[old] for (_, old) in members)
                for new_rank, (_, old) in enumerate(members):
                    plan[old] = (context_id, group, new_rank)
            decided = plan
        else:
            decided = None
        decided = self.bcast(decided, root=0)
        mine = decided.get(self.rank)
        if mine is None:
            return None
        context_id, group, new_rank = mine
        return Communicator(self._world, context_id, group, new_rank)

    def dup(self) -> "Communicator":
        """Duplicate the communicator into a fresh context (same group)."""
        new = self.split(color=0, key=self.rank)
        assert new is not None
        return new

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Communicator(rank={self.rank}, size={self.size}, "
            f"context={self._context})"
        )

