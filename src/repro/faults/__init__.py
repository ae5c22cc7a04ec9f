"""``repro.faults`` — deterministic fault injection for chaos testing.

The recovery machinery in this library (:class:`~repro.smpi.exceptions.
FailedRankError` fail-fast wakeups, ``Session.run(restart_policy=...)``
checkpoint/replay, serving failover) is only trustworthy if it is
exercised — this package injects the failures it must survive, *onto the
communicator*, where every distributed interaction funnels through.

It mirrors the :mod:`repro.obs` factory-observer design exactly:

* :class:`FaultyCommunicator` is a proxy on the one communicator
  interception layer (:mod:`repro.smpi.intercept`, shared with the
  metrics observer and the tracer) that consults a shared
  :class:`FaultController` before every op in the op table and injects
  the scheduled fault — sleep (``delay``/``jitter``), swallow a send
  (``drop``), or raise :class:`InjectedCrash` (``crash``);
* :func:`repro.faults.runtime.install` /
  :func:`~repro.faults.runtime.inject_communicator` are the refcounted
  process-global hooks the :mod:`repro.smpi` factories apply through
  :func:`~repro.smpi.intercept.wrap_communicator` — a no-op returning
  the raw communicator unless a fault plan is active, so normal runs pay
  nothing;
* the plan itself is the frozen, JSON-round-trippable
  :class:`~repro.config.FaultConfig` section of
  :class:`~repro.config.RunConfig`, so a chaos run is *configuration*,
  replayable from a seed.

Injected faults are metered as ``repro.faults.injected.<kind>`` counters
while :mod:`repro.obs` metrics are on, and the controller keeps its own
counts for the ``repro chaos`` recovery report.
"""

from .comm import FaultyCommunicator
from .controller import FaultController, InjectedCrash
from .runtime import (
    active,
    inject_communicator,
    install,
    state,
    uninstall,
)

__all__ = [
    "FaultController",
    "FaultyCommunicator",
    "InjectedCrash",
    "active",
    "inject_communicator",
    "install",
    "state",
    "uninstall",
]
