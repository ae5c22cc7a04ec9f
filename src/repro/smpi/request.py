"""Nonblocking point-to-point requests (``isend``/``irecv``).

In this in-process runtime a send never blocks (mailboxes are unbounded), so
an :class:`SendRequest` is complete at creation — matching MPI's *buffered*
send semantics, which is also what mpi4py's pickle-mode ``isend`` gives for
small messages.  An :class:`RecvRequest` completes when a matching envelope
is taken from the mailbox; ``wait`` blocks (optionally bounded by
``timeout=``), ``test`` polls, and both cache the payload, so repeated
completion calls are free.
"""

from __future__ import annotations

import inspect
import warnings
from typing import Any, Optional, Tuple

from .exceptions import DeadlockError, SmpiError
from .mailbox import Mailbox
from .message import take_payload
from .provenance import TRACKER, pending_summary

__all__ = [
    "Request",
    "SendRequest",
    "RecvRequest",
]


def _warn_unawaited(request: "Request", what: str) -> None:
    """Finalizer body of a leak-prone request.

    A request garbage-collected without ``wait()``/``test()`` ever
    observing completion is an SPMD hazard (a dropped message) — the
    runtime twin of the static never-awaited rule ``SPMD002``.  Emits a
    :class:`ResourceWarning`, with the creation traceback appended when
    provenance tracking captured one.
    """
    origin = getattr(request, "_origin", None)
    message = (
        f"{what} was garbage-collected without wait()/test() observing "
        f"completion — an un-awaited nonblocking operation (SPMD002)"
    )
    if origin:
        message += f"; created at:\n{origin}"
    warnings.warn(message, ResourceWarning, stacklevel=2, source=request)


class Request:
    """Abstract handle for an in-flight nonblocking operation."""

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until completion; return the received payload (or ``None``
        for sends).  ``timeout`` (seconds) bounds the wait — on expiry a
        :class:`~repro.smpi.exceptions.DeadlockError` is raised instead of
        hanging the calling thread forever."""
        raise NotImplementedError

    def test(self) -> Tuple[bool, Any]:
        """Non-blocking completion check: ``(done, payload_or_None)``."""
        raise NotImplementedError


def _wait_child(child: Any, timeout: Optional[float]) -> Any:
    """Complete ``child``, passing ``timeout`` through when supported.

    Foreign request objects (e.g. mpi4py's, whose ``wait`` takes a status
    argument instead) are waited unbounded, matching their native
    semantics.  Support is decided by *signature inspection*, never by
    catching ``TypeError`` from the call — a ``TypeError`` raised inside
    the wait's execution must propagate, not silently retry and re-run
    side effects.
    """
    if timeout is None:
        return child.wait()
    if isinstance(child, Request):
        return child.wait(timeout=timeout)
    try:
        supports_timeout = "timeout" in inspect.signature(child.wait).parameters
    except (TypeError, ValueError):  # builtins/extensions without signatures
        supports_timeout = False
    if supports_timeout:
        return child.wait(timeout=timeout)
    return child.wait()


class SendRequest(Request):
    """A buffered send: complete immediately."""

    def wait(self, timeout: Optional[float] = None) -> None:
        return None

    def test(self) -> Tuple[bool, None]:
        return True, None


class RecvRequest(Request):
    """A pending receive bound to a mailbox and a ``(source, tag)`` pattern."""

    def __init__(self, mailbox: Mailbox, source: int, tag: int) -> None:
        self._mailbox = mailbox
        self._source = source
        self._tag = tag
        self._done = False
        self._payload: Any = None
        self._origin: Optional[str] = None
        if TRACKER.enabled:
            self._origin = TRACKER.note_request(
                self,
                "RecvRequest",
                f"recv(source={source}, tag={tag}) on rank {mailbox.owner}",
            )

    def __del__(self) -> None:
        try:
            if not self._done:
                _warn_unawaited(
                    self,
                    f"RecvRequest(source={self._source}, tag={self._tag})",
                )
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until the matching envelope arrives.

        ``timeout`` (seconds) overrides the mailbox's default deadlock
        timeout for this wait only.  A deadlocked wait — no matching send
        ever posted — raises a descriptive
        :class:`~repro.smpi.exceptions.DeadlockError` naming the pending
        ``(source, tag)`` pattern instead of hanging the threads backend
        forever.
        """
        if not self._done:
            try:
                envelope = self._mailbox.get(
                    self._source, self._tag, timeout=timeout
                )
            except DeadlockError as exc:
                effective = (
                    timeout if timeout is not None else self._mailbox.timeout
                )
                message = (
                    f"RecvRequest.wait(source={self._source}, "
                    f"tag={self._tag}) timed out after {effective}s on rank "
                    f"{self._mailbox.owner}: the matching send was never "
                    f"posted (deadlocked nonblocking receive)"
                )
                dump = pending_summary()
                if dump:
                    message += "\n" + dump
                raise DeadlockError(message) from exc
            self._payload = take_payload(envelope)
            self._done = True
        return self._payload

    def test(self) -> Tuple[bool, Optional[Any]]:
        if self._done:
            return True, self._payload
        envelope = self._mailbox.poll(self._source, self._tag)
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
