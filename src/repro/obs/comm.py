"""Communicator observation: per-op call/byte/latency metrics.

:class:`ObservedCommunicator` is the factory-level observer the
:mod:`repro.smpi` backends report through when observability is active —
one concern on the shared interception layer
(:mod:`repro.smpi.intercept`), recording aggregate metrics instead of the
tracer's per-payload records, so it is cheap enough to leave on.  Every
op in the op table is timed and byte-counted into three metrics::

    repro.smpi.<op>.calls     counter
    repro.smpi.<op>.bytes     counter  (payload this rank handed over, or
                                        received by a blocking receive side)
    repro.smpi.<op>.seconds   histogram

Nonblocking ops return a request proxy that additionally times the
``wait``/``test`` call that completes them (``repro.smpi.wait.calls`` /
``repro.smpi.wait.seconds``) — the time a rank spends blocked on
point-to-point traffic.

The proxy only exists while observability is installed
(:func:`repro.obs.runtime.observe_communicator`); disabled runs keep the
raw backend communicator and pay nothing.
"""

from __future__ import annotations

import time
from typing import Any

from ..smpi.intercept import InterceptedCommunicator, InterceptedRequest, Op
from ..smpi.message import payload_nbytes
from .metrics import MetricsRegistry

__all__ = ["ObservedCommunicator"]


class ObservedCommunicator(InterceptedCommunicator):
    """Transparent metrics-recording proxy over any backend communicator."""

    def __init__(self, comm: Any, registry: MetricsRegistry) -> None:
        super().__init__(comm)
        self._registry = registry
        wait_calls = registry.counter("repro.smpi.wait.calls")
        wait_seconds = registry.histogram("repro.smpi.wait.seconds")

        def on_wait(_result: Any, _t_start: float, duration_s: float) -> None:
            wait_seconds.observe(duration_s)
            wait_calls.inc()

        self._on_wait = on_wait

    def _rewrap(self, comm: Any) -> "ObservedCommunicator":
        return ObservedCommunicator(comm, self._registry)

    def _wrap(self, name: str, op: Op, target: Any) -> Any:
        calls = self._registry.counter(f"repro.smpi.{name}.calls")
        nbytes = self._registry.counter(f"repro.smpi.{name}.bytes")
        seconds = self._registry.histogram(f"repro.smpi.{name}.seconds")
        on_wait = self._on_wait

        def observed(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            result = target(*args, **kwargs)
            seconds.observe(time.perf_counter() - t0)
            calls.inc()
            payload = op.payload_of(args)
            if payload is None and not op.nonblocking:
                # A blocking receive side (recv, bcast(None, root))
                # hands nothing over: meter what it got.
                payload = result
            size = payload_nbytes(payload)
            if size:
                nbytes.inc(size)
            if op.nonblocking:
                return InterceptedRequest(result, on_wait)
            return result

        return observed
