"""Process-global fault-injection state, mirroring :mod:`repro.obs.runtime`.

The :mod:`repro.smpi` factories apply :func:`inject_communicator` (through
:func:`repro.smpi.intercept.wrap_communicator`) to every communicator
they hand out; unless a fault plan is installed it returns the
communicator untouched, so normal runs pay one module-global read.

``install`` is reference-counted like the obs runtime's: the per-rank
:class:`~repro.api.Session` objects of one threads run each install with
the same :class:`~repro.config.FaultConfig` and the state stays active
until the last one closes.  Crucially, a caller may pin a pre-built
:class:`~repro.faults.controller.FaultController` (a
:class:`~repro.api.Recovery` does) so the fire-once crash bookkeeping
survives every rebuild of the world — otherwise each rebuilt world would
re-create the controller and re-crash forever.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from ..config import FaultConfig
from .controller import FaultController

__all__ = [
    "install",
    "uninstall",
    "state",
    "active",
    "inject_communicator",
]

_LOCK = threading.Lock()
_STATE: Optional[FaultController] = None
_DEPTH = 0


def install(
    config: Optional[FaultConfig] = None,
    *,
    controller: Optional[FaultController] = None,
) -> Optional[FaultController]:
    """Activate fault injection; reference-counted.

    The first install decides the controller — an explicitly pinned one,
    or a fresh :class:`FaultController` built from ``config``.  Nested
    installs (the per-rank sessions of one run) just increment the
    count; their config is ignored in favour of the active controller.
    Installing with neither a controller nor an *active* config
    (``config.active``) is a recorded no-op: it still increments the
    count (pair every call with :func:`uninstall`) but activates
    nothing.
    """
    global _STATE, _DEPTH
    with _LOCK:
        if _STATE is None:
            if controller is not None:
                _STATE = controller
            elif config is not None and config.active:
                _STATE = FaultController(config)
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


def state() -> Optional[FaultController]:
    """The active controller, or ``None`` when injection is off."""
    return _STATE


def active() -> bool:
    return _STATE is not None


def inject_communicator(comm: Any) -> Any:
    """Wrap ``comm`` for fault injection when active; pass through
    otherwise.  Idempotent — a chain that already holds an injector is
    returned as-is, so the controller sees each op once."""
    st = _STATE
    if st is None:
        return comm
    from ..smpi.intercept import find_layer
    from .comm import FaultyCommunicator

    if find_layer(comm, FaultyCommunicator) is not None:
        return comm
    return FaultyCommunicator(comm, st)
