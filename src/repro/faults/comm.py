"""``FaultyCommunicator`` — the injection proxy over any communicator.

One concern on the shared interception layer (:mod:`repro.smpi.
intercept`), like :class:`~repro.obs.comm.ObservedCommunicator`: every op
in the op table consults the controller before it delegates.  The
wrapper layers *outside* the metrics observer
(:func:`~repro.smpi.intercept.wrap_communicator` decides that order), so
injected delays show up in the observed op latencies — exactly like a
genuinely slow rank would.

Crash stickiness lives here, not in the controller: once the controller
kills this rank, every further op on *this wrapper* raises again (the
rank is dead for the rest of the attempt), while the controller's
fire-once bookkeeping lets the next attempt's fresh wrappers run clean.
"""

from __future__ import annotations

from typing import Any, Optional

from ..smpi.intercept import InterceptedCommunicator, Op
from ..smpi.request import SendRequest
from .controller import FaultController, InjectedCrash

__all__ = ["FaultyCommunicator"]


class FaultyCommunicator(InterceptedCommunicator):
    """Fault-injecting proxy over a (possibly observed) communicator."""

    def __init__(self, comm: Any, controller: FaultController) -> None:
        super().__init__(comm)
        self._controller = controller
        self._dead: Optional[InjectedCrash] = None

    @property
    def controller(self) -> FaultController:
        return self._controller

    def _rewrap(self, comm: Any) -> "FaultyCommunicator":
        return FaultyCommunicator(comm, self._controller)

    def _wrap(self, name: str, op: Op, target: Any) -> Any:
        controller = self._controller

        def faulty(*args: Any, **kwargs: Any) -> Any:
            if self._dead is not None:
                # Sticky crash: the rank died earlier this attempt.
                raise InjectedCrash(
                    self._dead.rank, self._dead.op, self._dead.nth
                )
            try:
                drop = controller.apply(self._comm.rank, name)
            except InjectedCrash as exc:
                self._dead = exc
                raise
            if drop and op.droppable:
                # Swallowed send: the message never leaves this rank.
                return SendRequest() if op.nonblocking else None
            return target(*args, **kwargs)

        return faulty
