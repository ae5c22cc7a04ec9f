"""Thread-safe per-rank mailboxes with MPI matching semantics.

Each rank owns one :class:`Mailbox`.  Senders append envelopes; receivers
block until an envelope matching their ``(source, tag)`` pattern arrives.
Matching respects MPI's non-overtaking rule: among messages from the same
source with the same tag, the earliest posted one is delivered first (we
deliver the earliest *matching* envelope in arrival order, which implies
non-overtaking for any fixed (source, tag) pair).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

from . import provenance
from .exceptions import DeadlockError, FailedRankError
from .message import Envelope

__all__ = ["Mailbox", "DEFAULT_TIMEOUT"]

#: The one blocking-wait default for the whole substrate.  Matches
#: ``repro.config.BackendConfig.timeout`` so a configured value and an
#: unconfigured path agree; every constructor defaulting a timeout
#: (``World``, ``create_communicator``, ``run_spmd``)
#: references this constant instead of a private literal.
DEFAULT_TIMEOUT: float = 120.0


class Mailbox:
    """Blocking mailbox for one receiving rank.

    Parameters
    ----------
    owner:
        Rank that owns (receives from) this mailbox; used in diagnostics.
    timeout:
        Seconds a blocking receive waits before declaring a deadlock.
    """

    def __init__(self, owner: int, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.owner = owner
        self.timeout = timeout
        self._queue: Deque[Envelope] = deque()
        self._cond = threading.Condition()
        self._failure_probe: Optional[
            Callable[[], Dict[int, BaseException]]
        ] = None
        # Liveness heartbeat: the owning rank (its progress daemon, or
        # any communicator op it performs) stamps a monotonic beat here;
        # health monitors on peer ranks classify this rank from the beat
        # age.  A bare float store/load is atomic under the GIL, so no
        # lock is taken on the beat path.
        self._last_beat: float = time.monotonic()
        self._beats: int = 0

    def beat(self) -> None:
        """Publish a liveness beat (monotonic timestamp) for the owner."""
        self._last_beat = time.monotonic()
        self._beats += 1

    @property
    def last_beat(self) -> float:
        """Monotonic timestamp of the owner's most recent beat (the
        mailbox's creation time before the first explicit beat)."""
        return self._last_beat

    @property
    def beats(self) -> int:
        """Number of explicit beats published so far."""
        return self._beats

    def attach_failure_probe(
        self, probe: Callable[[], Dict[int, BaseException]]
    ) -> None:
        """Install the world's failed-rank snapshot callable.

        With a probe attached, a blocked :meth:`get` raises
        :class:`FailedRankError` as soon as any world rank is declared
        dead (see ``World.fail_rank``) instead of waiting out the full
        deadlock timeout.
        """
        self._failure_probe = probe

    def notify_failure(self) -> None:
        """Wake any blocked receiver so it can observe a rank failure."""
        with self._cond:
            self._cond.notify_all()

    def _check_failed(self) -> None:
        if self._failure_probe is None:
            return
        failed = self._failure_probe()
        if failed:
            ranks = sorted(failed)
            causes = "; ".join(
                f"rank {r}: {type(failed[r]).__name__}: {failed[r]}"
                for r in ranks
            )
            raise FailedRankError(
                f"rank {self.owner}: peer rank(s) {ranks} failed while "
                f"this rank was blocked in recv ({causes})",
                failed_ranks=ranks,
            )

    def put(self, envelope: Envelope) -> None:
        """Deposit an envelope and wake any waiting receiver."""
        with self._cond:
            self._queue.append(envelope)
            self._cond.notify_all()

    def _find(self, source: int, tag: int) -> Optional[Envelope]:
        for i, envelope in enumerate(self._queue):
            if envelope.matches(source, tag):
                del self._queue[i]
                return envelope
        return None

    def get(
        self, source: int, tag: int, timeout: Optional[float] = None
    ) -> Envelope:
        """Block until an envelope matching ``(source, tag)`` arrives.

        ``-1`` in either position is a wildcard.  ``timeout`` overrides the
        mailbox's default for this call only.  Raises
        :class:`DeadlockError` after the timeout without a match — real
        MPI would hang forever; the simulator fails loudly instead.  The
        deadline is absolute: spurious wakeups (other envelopes arriving)
        do not reset it.
        """
        effective = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + effective
        with self._cond:
            envelope = self._find(source, tag)
            while envelope is None:
                self._check_failed()
                remaining = deadline - time.monotonic()
                if remaining <= 0.0 or not self._cond.wait(timeout=remaining):
                    self._check_failed()
                    message = (
                        f"rank {self.owner}: recv(source={source}, tag={tag}) "
                        f"timed out after {effective}s "
                        f"({len(self._queue)} unmatched messages queued)"
                    )
                    dump = provenance.pending_summary()
                    if dump:
                        message += "\n" + dump
                    raise DeadlockError(message)
                envelope = self._find(source, tag)
            return envelope

    def poll(self, source: int, tag: int) -> Optional[Envelope]:
        """Non-blocking probe-and-take; returns ``None`` when no match."""
        with self._cond:
            return self._find(source, tag)
