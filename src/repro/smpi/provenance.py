"""Creation-site provenance for requests and envelopes (leak detection).

The SPMD contract leaves two resource classes that nothing structurally
forces a program to retire:

* **nonblocking requests** — a :class:`~repro.smpi.request.RecvRequest`
  whose ``wait()`` / ``test()`` is never called: its message is silently
  dropped.
* **envelopes** — shells drawn from the
  :class:`~repro.smpi.message.EnvelopePool` arena that are never recycled
  through :func:`~repro.smpi.message.take_payload`, i.e. messages that
  were sent but never consumed.

This module is the runtime half of the ``repro.verify`` correctness
tooling: a process-wide :class:`RequestTracker` that — **only while
enabled** — records every request/envelope creation (optionally with the
creating stack), drops entries as they complete or recycle, and can
report what is still outstanding.  Disabled (the default), the hooks are
a single attribute check on the hot path and record nothing.

Use the :func:`track` context manager::

    from repro.smpi import provenance

    with provenance.track() as scope:
        run_spmd(4, job)
        leaks = scope.pending_requests() + scope.unreleased_envelopes()

``repro verify --schedule`` and the ``spmd_leak_guard`` pytest fixture
(:mod:`repro.verify.pytest_plugin`) are built on exactly this.
"""

from __future__ import annotations

import contextlib
import threading
import traceback
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Leak",
    "RequestTracker",
    "TRACKER",
    "track",
    "pending_summary",
]


@dataclass(frozen=True)
class Leak:
    """One outstanding resource: what it is, and where it was created."""

    kind: str
    detail: str
    origin: Optional[str] = None

    def describe(self) -> str:
        """Multi-line human-readable form (used by reports/assertions)."""
        lines = [f"{self.kind}: {self.detail}"]
        if self.origin:
            lines.append("created at:")
            lines.extend("  " + line for line in self.origin.splitlines())
        return "\n".join(lines)


class _Entry:
    """Bookkeeping for one tracked object (weakly referenced)."""

    __slots__ = ("ref", "kind", "detail", "origin", "seq")

    def __init__(
        self,
        ref: Any,
        kind: str,
        detail: str,
        origin: Optional[str],
        seq: int,
    ) -> None:
        self.ref = ref
        self.kind = kind
        self.detail = detail
        self.origin = origin
        self.seq = seq


def _capture_origin(skip: int = 3) -> str:
    """Formatted creating stack, trimmed of the tracker's own frames."""
    stack = traceback.extract_stack()
    if skip:
        stack = stack[:-skip]
    return "".join(traceback.format_list(stack[-8:])).rstrip()


class RequestTracker:
    """Process-wide registry of live requests and envelopes.

    Enablement is *reference-counted* so nested :func:`track` scopes (a
    leak-guarded test calling a leak-guarded helper) compose; traceback
    capture is counted separately and is the expensive part.  All hooks
    are thread-safe — SPMD ranks create requests concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._enabled = 0
        self._capture = 0
        self._seq = 0
        self._requests: Dict[int, _Entry] = {}
        self._envelopes: Dict[int, _Entry] = {}
        # Entries whose object died, queued by the weakref callbacks and
        # purged under the lock.  A callback must not take the lock: it runs
        # whenever the garbage collector fires, which can be inside this
        # thread's own locked section (a non-reentrant lock then hangs).
        self._dead: List[Tuple[Dict[int, _Entry], int, Any]] = []

    @property
    def enabled(self) -> bool:
        """Are the creation hooks currently recording?"""
        return self._enabled > 0

    @property
    def capturing(self) -> bool:
        """Are creation tracebacks being captured?"""
        return self._capture > 0

    def enable(self, capture_tracebacks: bool = False) -> None:
        """Turn the hooks on (refcounted; pair with :meth:`disable`)."""
        with self._lock:
            self._enabled += 1
            if capture_tracebacks:
                self._capture += 1

    def disable(self, capture_tracebacks: bool = False) -> None:
        """Undo one :meth:`enable`; registries clear when the last scope
        exits (so a later scope never reports an earlier scope's
        traffic)."""
        with self._lock:
            self._enabled = max(self._enabled - 1, 0)
            if capture_tracebacks:
                self._capture = max(self._capture - 1, 0)
            if self._enabled == 0:
                self._requests.clear()
                self._envelopes.clear()
                self._dead.clear()

    def mark(self) -> int:
        """Sequence mark delimiting 'created after this point'."""
        with self._lock:
            return self._seq

    def _purge(self) -> None:
        """Drop the entries of dead objects (call with the lock held).  An
        entry is dropped only if it still holds the dead reference: its
        key, an ``id``, may already belong to a newer object."""
        while self._dead:
            registry, key, ref = self._dead.pop()
            entry = registry.get(key)
            if entry is not None and entry.ref is ref:
                del registry[key]

    # -- creation hooks (called by request.py / message.py) ----------------
    def _note(self, registry: Dict[int, _Entry], obj: Any, kind: str, detail: str) -> None:
        origin = _capture_origin() if self._capture > 0 else None
        key = id(obj)

        def _forget(ref: Any, *, _registry: Dict[int, _Entry] = registry, _key: int = key) -> None:
            self._dead.append((_registry, _key, ref))

        try:
            ref = weakref.ref(obj, _forget)
        except TypeError:  # pragma: no cover - non-weakrefable object
            return
        with self._lock:
            self._purge()
            self._seq += 1
            registry[key] = _Entry(ref, kind, detail, origin, self._seq)

    def note_request(self, request: Any, kind: str, detail: str) -> Optional[str]:
        """Record a freshly created request; returns the captured origin
        (for the request's own finalizer warning) or ``None``."""
        self._note(self._requests, request, kind, detail)
        entry = self._requests.get(id(request))
        return entry.origin if entry is not None else None

    def note_envelope(self, envelope: Any) -> None:
        """Record an envelope leaving the arena."""
        detail = (
            f"source={getattr(envelope, 'source', '?')}, "
            f"tag={getattr(envelope, 'tag', '?')}"
        )
        self._note(self._envelopes, envelope, "Envelope", detail)

    def forget_envelope(self, envelope: Any) -> None:
        """An envelope was recycled (its payload consumed) — not a leak."""
        if self._enabled > 0:
            with self._lock:
                self._envelopes.pop(id(envelope), None)

    # -- reporting ---------------------------------------------------------
    def _collect(
        self,
        registry: Dict[int, _Entry],
        since: int,
        still_leaked: Any,
    ) -> List[Leak]:
        with self._lock:
            self._purge()
            entries = list(registry.values())
        leaks = []
        for entry in entries:
            if entry.seq <= since:
                continue
            obj = entry.ref()
            if obj is None or not still_leaked(obj):
                continue
            leaks.append(Leak(entry.kind, entry.detail, entry.origin))
        leaks.sort(key=lambda leak: (leak.kind, leak.detail))
        return leaks

    def pending_requests(self, since: int = 0) -> List[Leak]:
        """Requests created after ``since`` that are alive and have never
        observed completion (``wait()``/``test()`` never finished)."""
        return self._collect(
            self._requests,
            since,
            lambda req: not getattr(req, "_done", True),
        )

    def unreleased_envelopes(self, since: int = 0) -> List[Leak]:
        """Envelopes created after ``since`` still holding their payload
        (sent but never consumed/recycled)."""
        return self._collect(
            self._envelopes,
            since,
            lambda env: getattr(env, "payload", None) is not None,
        )


#: The process-wide tracker the smpi hooks report into.
TRACKER = RequestTracker()


def _origin_site(origin: Optional[str]) -> Optional[str]:
    """The innermost ``File "...", line N, in fn`` line of a captured
    creating stack — the one-line creation site for compact dumps."""
    if not origin:
        return None
    site = None
    for line in origin.splitlines():
        stripped = line.strip()
        if stripped.startswith("File "):
            site = stripped
    return site


def pending_summary(limit: int = 8) -> str:
    """One-line-per-request dump of every currently pending request.

    Used to enrich :class:`~repro.smpi.exceptions.DeadlockError` messages:
    when a blocking receive times out, the requests still in flight (op,
    peer, tag and — with traceback capture on — their creation site) are
    usually the whole diagnosis.  Returns ``""`` when the tracker is
    disabled or nothing is pending, so callers can append unconditionally.
    """
    if not TRACKER.enabled:
        return ""
    leaks = TRACKER.pending_requests(0)
    if not leaks:
        return ""
    lines = [f"{len(leaks)} request(s) still pending:"]
    for leak in leaks[:limit]:
        line = f"  - {leak.kind}: {leak.detail}"
        site = _origin_site(leak.origin)
        if site:
            line += f" [{site}]"
        lines.append(line)
    if len(leaks) > limit:
        lines.append(f"  ... and {len(leaks) - limit} more")
    return "\n".join(lines)


class TrackScope:
    """Reporting view over :data:`TRACKER` scoped to one :func:`track`."""

    def __init__(self, tracker: RequestTracker, since: int) -> None:
        self._tracker = tracker
        self._since = since

    def pending_requests(self) -> List[Leak]:
        """Un-awaited requests created inside this scope, still alive."""
        return self._tracker.pending_requests(self._since)

    def unreleased_envelopes(self) -> List[Leak]:
        """Unrecycled envelopes created inside this scope, still alive."""
        return self._tracker.unreleased_envelopes(self._since)

    def leaks(self) -> List[Leak]:
        """Everything outstanding: pending requests + unrecycled
        envelopes."""
        return self.pending_requests() + self.unreleased_envelopes()


@contextlib.contextmanager
def track(capture_tracebacks: bool = True) -> Iterator[TrackScope]:
    """Enable provenance for a block and report what it leaked.

    Query the yielded :class:`TrackScope` *inside* the block (typically
    at its very end, after the workload finished): its registries are
    cleared when the last enclosing scope exits.
    """
    TRACKER.enable(capture_tracebacks)
    scope = TrackScope(TRACKER, TRACKER.mark())
    try:
        yield scope
    finally:
        TRACKER.disable(capture_tracebacks)
