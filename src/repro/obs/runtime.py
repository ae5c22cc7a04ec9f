"""Process-global observability state: install/uninstall, null-cost guards.

The instrumentation threaded through the stack must cost ~nothing when
observability is off.  The contract every instrumented call site follows:

* ``state()`` is one module-global read; it returns ``None`` when
  observability is not installed — guard with ``if st is not None`` and
  allocate nothing on the disabled path;
* ``span(...)`` returns a shared null context manager when no tracer is
  active, so ``with _obs.span(...):`` is allocation-free when disabled;
* communicators are only *wrapped* (:func:`observe_communicator`, via
  :func:`repro.smpi.intercept.wrap_communicator`) while state is active,
  so the disabled comm path is the raw backend object — zero overhead by
  construction.

``install`` is reference-counted: the per-rank :class:`repro.api.Session`
objects of one threads run each install/uninstall, and the state stays
active until the last one closes.  The default registry and tracer are
process-global singletons that *survive* uninstall, so drivers (the CLI,
``repro profile``) can export metrics and traces after the run has torn
its sessions down; ``reset()`` clears them between runs.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from .metrics import MetricsRegistry
from .tracing import SpanTracer, _Span

__all__ = [
    "ObsState",
    "default_registry",
    "default_tracer",
    "current_registry",
    "current_tracer",
    "install",
    "uninstall",
    "installed",
    "state",
    "span",
    "reset",
    "observe_communicator",
]


class ObsState:
    """Active observability configuration: a registry and/or a tracer."""

    __slots__ = ("registry", "tracer")

    def __init__(
        self,
        registry: Optional[MetricsRegistry],
        tracer: Optional[SpanTracer],
    ) -> None:
        self.registry = registry
        self.tracer = tracer


class _NullSpan:
    """Shared no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None

    def __call__(self, fn: Any) -> Any:
        return fn


_NULL_SPAN = _NullSpan()

_LOCK = threading.Lock()
_STATE: Optional[ObsState] = None
_DEPTH = 0

_DEFAULT_REGISTRY = MetricsRegistry()
_DEFAULT_TRACER = SpanTracer()


def default_registry() -> MetricsRegistry:
    """The process-global registry (survives install/uninstall cycles)."""
    return _DEFAULT_REGISTRY


def default_tracer() -> SpanTracer:
    """The process-global tracer (survives install/uninstall cycles)."""
    return _DEFAULT_TRACER


def state() -> Optional[ObsState]:
    """The active state, or ``None`` when observability is off."""
    return _STATE


def installed() -> bool:
    return _STATE is not None


def current_registry() -> MetricsRegistry:
    """Active registry if installed with metrics, else the default one."""
    st = _STATE
    if st is not None and st.registry is not None:
        return st.registry
    return _DEFAULT_REGISTRY


def current_tracer() -> SpanTracer:
    """Active tracer if installed with tracing, else the default one."""
    st = _STATE
    if st is not None and st.tracer is not None:
        return st.tracer
    return _DEFAULT_TRACER


def install(
    *,
    metrics: bool = True,
    trace: bool = False,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
) -> ObsState:
    """Activate observability; reference-counted.

    The first install decides the registry/tracer objects (defaulting to
    the process-global singletons); nested installs increment the
    reference count and may *upgrade* the state (request metrics or
    tracing that the outer install did not), never downgrade it — the
    per-rank sessions of one run all observe the same state.
    """
    global _STATE, _DEPTH
    with _LOCK:
        if _STATE is None:
            _STATE = ObsState(
                (registry or _DEFAULT_REGISTRY) if metrics else None,
                (tracer or _DEFAULT_TRACER) if trace else None,
            )
        else:
            if metrics and _STATE.registry is None:
                _STATE.registry = registry or _DEFAULT_REGISTRY
            if trace and _STATE.tracer is None:
                _STATE.tracer = tracer or _DEFAULT_TRACER
        _DEPTH += 1
        return _STATE


def uninstall() -> None:
    """Drop one install reference; deactivates at zero."""
    global _STATE, _DEPTH
    with _LOCK:
        if _DEPTH <= 0:
            return
        _DEPTH -= 1
        if _DEPTH == 0:
            _STATE = None


def span(
    name: str, *, phase: Optional[str] = None, rank: Optional[int] = None
) -> Any:
    """A tracer span when tracing is active, else a shared no-op context.

    Usable as a context manager or a decorator; the disabled path is a
    single global read plus a singleton return — no allocations.
    """
    st = _STATE
    if st is None or st.tracer is None:
        return _NULL_SPAN
    return _Span(st.tracer, name, phase, rank)


def reset() -> None:
    """Clear the process-global default registry and tracer."""
    _DEFAULT_REGISTRY.reset()
    _DEFAULT_TRACER.reset()


def observe_communicator(comm: Any) -> Any:
    """Wrap ``comm`` for metrics when active; pass through otherwise.

    Idempotent (a chain that already holds an observer is returned
    as-is) and a no-op when observability is off or installed without
    metrics — the disabled hot path keeps the raw backend communicator.
    """
    st = _STATE
    if st is None or st.registry is None:
        return comm
    from ..smpi.intercept import find_layer
    from .comm import ObservedCommunicator

    if find_layer(comm, ObservedCommunicator) is not None:
        return comm
    return ObservedCommunicator(comm, st.registry)
