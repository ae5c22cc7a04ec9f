"""Message envelopes and payload copy semantics.

MPI has *value* semantics: the bytes on the wire are a snapshot of the send
buffer at send time, and mutating the buffer afterwards must not affect the
receiver.  A naive in-process implementation that passes object references
would silently violate this, so every payload is deep-copied at send time
(:func:`copy_payload`), with a fast path for NumPy arrays.

Two fast lanes keep the snapshot cost off the streaming hot path:

* **read-only arrays are shared, not copied** — an ndarray with
  ``writeable=False`` is already an immutable snapshot, so
  :func:`copy_payload` returns it as-is.  :func:`freeze_payload` produces
  such snapshots (one copy, then ``arr.flags.writeable = False``), which is
  how a broadcast root pays for *one* copy shared by all ``p - 1``
  envelopes instead of ``p - 1`` deep copies;
* **wire sizes are computed lazily** — ``Envelope.nbytes`` walks the
  payload only when something (the traffic tracer, the cost model) actually
  reads it, so untraced runs never pay for the recursive sizing walk;
* **envelope shells are pooled** — delivered envelopes return their
  (payload-stripped) shell to a bounded arena (:class:`EnvelopePool`), so
  a steady-state streaming loop's request churn allocates no envelope
  objects at all.  Consumers release shells through :func:`take_payload`;
  an envelope nobody takes is simply never released.
"""

from __future__ import annotations

import copy
import pickle
import threading
from typing import Any, List, Tuple

import numpy as np

from .provenance import TRACKER

__all__ = [
    "Envelope",
    "EnvelopePool",
    "ENVELOPE_POOL",
    "copy_payload",
    "freeze_payload",
    "payload_nbytes",
    "take_payload",
]


def _is_immutable_snapshot(arr: np.ndarray) -> bool:
    """Is ``arr`` safe to share without copying?

    Read-only is necessary but not sufficient: a ``writeable=False`` *view*
    of a writable base (``np.broadcast_to``, a flag-frozen slice) still
    changes when the base is mutated, so sharing it would leak sender
    mutations to receivers.  Only read-only arrays that own their buffer
    (``base is None`` — e.g. :func:`freeze_payload` snapshots) qualify.
    """
    return not arr.flags.writeable and arr.base is None


def copy_payload(obj: Any) -> Any:
    """Deep-copy ``obj`` with a fast path for NumPy arrays.

    Immutable scalars (int, float, complex, bool, str, bytes, None) are
    returned as-is; *immutable-snapshot* arrays (read-only and owning
    their buffer, e.g. produced by :func:`freeze_payload`) are also
    returned as-is; every other array is copied with
    ``np.array(..., copy=True)``; containers holding arrays fall back to
    :func:`copy.deepcopy`, which handles arrays correctly via their
    ``__deepcopy__``.
    """
    if obj is None or isinstance(obj, (int, float, complex, bool, str, bytes)):
        return obj
    if isinstance(obj, np.ndarray):
        if _is_immutable_snapshot(obj):
            return obj
        return np.array(obj, copy=True)
    if isinstance(obj, tuple):
        # Recurse so tuple members keep the array fast paths: a tuple of
        # pre-frozen arrays (e.g. a pipelined TSQR reply) is snapshotted
        # by *sharing* its immutable members instead of deep-copying them.
        return tuple(copy_payload(item) for item in obj)
    if isinstance(obj, list):
        # A fresh list of snapshotted items preserves value semantics:
        # neither side's container mutations reach the other.
        return [copy_payload(item) for item in obj]
    return copy.deepcopy(obj)


def freeze_payload(obj: Any) -> Tuple[Any, bool]:
    """Produce an immutable snapshot of ``obj`` safe to *share* across
    receivers, if possible.

    Returns ``(snapshot, shareable)``.  When ``shareable`` is true the
    snapshot is immutable all the way down — scalars, read-only arrays
    (``writeable=False``), and tuples thereof — so a single object can back
    every receiver's envelope without breaking value semantics: the sender
    mutating its original cannot reach the snapshot, and no receiver can
    mutate what it got.  When ``shareable`` is false (mutable containers,
    arbitrary objects) the caller must fall back to one
    :func:`copy_payload` per receiver.
    """
    if obj is None or isinstance(obj, (int, float, complex, bool, str, bytes)):
        return obj, True
    if isinstance(obj, np.ndarray):
        if _is_immutable_snapshot(obj):
            # Already an immutable snapshot (e.g. re-broadcast of a
            # previously frozen payload) — share it outright.  Read-only
            # *views* of writable bases do NOT qualify and are copied.
            return obj, True
        frozen = np.array(obj, copy=True)
        frozen.flags.writeable = False
        return frozen, True
    if isinstance(obj, tuple):
        items = []
        for item in obj:
            frozen, shareable = freeze_payload(item)
            if not shareable:
                return obj, False
            items.append(frozen)
        return tuple(items), True
    return obj, False


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of ``obj`` in bytes.

    NumPy arrays report their buffer size (what MPI would transfer for
    buffer-mode sends); everything else is sized by its pickle, mirroring
    mpi4py's lowercase pickle-based transport.  Sizing failures degrade to 0
    rather than breaking communication — the estimate only feeds accounting.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    if isinstance(obj, (int, float, complex, bool)):
        return 8
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


class Envelope:
    """One in-flight message: source rank, tag, copied payload.

    ``nbytes`` (the estimated wire size used by the traffic tracer and the
    scaling cost model) is computed lazily on first read and cached — an
    untraced run never walks the payload just to size it.
    """

    __slots__ = ("source", "tag", "payload", "_nbytes", "__weakref__")

    def __init__(self, source: int, tag: int, payload: Any) -> None:
        self.source = source
        self.tag = tag
        self.payload = payload
        self._nbytes: Any = None

    @property
    def nbytes(self) -> int:
        """Estimated wire size of the payload (lazy, cached)."""
        if self._nbytes is None:
            self._nbytes = payload_nbytes(self.payload)
        return self._nbytes

    @classmethod
    def make(cls, source: int, tag: int, payload: Any) -> "Envelope":
        """Snapshot ``payload``, producing a sendable envelope (shell drawn
        from the arena pool)."""
        return ENVELOPE_POOL.acquire(source, tag, copy_payload(payload))

    @classmethod
    def presnapshotted(cls, source: int, tag: int, payload: Any) -> "Envelope":
        """Wrap an *already snapshotted* payload (no copy).

        The caller vouches that ``payload`` is safe to hand to the receiver
        without copying — e.g. a :func:`freeze_payload` snapshot shared by
        every receiver of a broadcast.
        """
        return ENVELOPE_POOL.acquire(source, tag, payload)

    def matches(self, source: int, tag: int) -> bool:
        """Does this envelope satisfy a ``recv(source, tag)`` with wildcard
        support?  Wildcards are encoded as ``-1`` (ANY_SOURCE / ANY_TAG)."""
        source_ok = source == -1 or source == self.source
        tag_ok = tag == -1 or tag == self.tag
        return source_ok and tag_ok

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Envelope(source={self.source}, tag={self.tag}, "
            f"payload={type(self.payload).__name__})"
        )


class EnvelopePool:
    """Bounded arena of recycled :class:`Envelope` shells.

    The threads transport creates one envelope per message; on the
    streaming hot path that is pure churn — the shell carries three slots
    and dies the moment the payload is extracted.  The pool keeps up to
    ``capacity`` dead shells on a lock-protected freelist and reinitialises
    them on :meth:`acquire`, so steady-state request traffic allocates no
    envelope objects.  Payload references are dropped at :meth:`release`
    time (a pooled shell never pins an array).
    """

    def __init__(self, capacity: int = 512) -> None:
        self._lock = threading.Lock()
        self._free: List[Envelope] = []
        self._capacity = int(capacity)

    def acquire(self, source: int, tag: int, payload: Any) -> Envelope:
        """A (re)initialised envelope carrying ``payload`` as-is (the
        caller has already applied the copy/snapshot policy)."""
        with self._lock:
            envelope = self._free.pop() if self._free else None
        if envelope is None:
            envelope = Envelope(source, tag, payload)
        else:
            envelope.source = source
            envelope.tag = tag
            envelope.payload = payload
            envelope._nbytes = None
        # Leak-detection hook: while provenance tracking is enabled
        # (repro.verify leak scopes), every envelope leaving the arena is
        # registered so shutdown reports can name sent-but-never-consumed
        # messages with their creation site.  Disabled, this is one
        # attribute check.
        if TRACKER.enabled:
            TRACKER.note_envelope(envelope)
        return envelope

    def release(self, envelope: Envelope) -> None:
        """Return a delivered envelope's shell to the arena.

        The caller must own the envelope (taken via ``get``/``poll``) and
        must have extracted the payload already.
        """
        if TRACKER.enabled:
            TRACKER.forget_envelope(envelope)
        envelope.payload = None
        envelope._nbytes = None
        with self._lock:
            if len(self._free) < self._capacity:
                self._free.append(envelope)

    def __len__(self) -> int:
        with self._lock:
            return len(self._free)


#: Process-wide shell arena shared by every threads-backend world.
ENVELOPE_POOL = EnvelopePool()


def take_payload(envelope: Envelope) -> Any:
    """Extract a delivered envelope's payload and recycle its shell.

    The single helper every consuming call site uses, so the ownership
    rule (release exactly once) lives in one place.
    """
    payload = envelope.payload
    ENVELOPE_POOL.release(envelope)
    return payload
