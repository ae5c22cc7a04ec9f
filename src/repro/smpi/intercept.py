"""One interception layer for every communicator proxy.

The metrics observer (:class:`~repro.obs.comm.ObservedCommunicator`), the
fault injector (:class:`~repro.faults.comm.FaultyCommunicator`) and the
traffic tracer (:class:`~repro.smpi.tracer.CommTracer`) wrap a backend
communicator without changing its surface, and share everything here:
the op table :data:`OPS`, the proxy base :class:`InterceptedCommunicator`,
the request wrapper :class:`InterceptedRequest`, and
:func:`wrap_communicator`, the one place that decides the wrapper order.
Methods outside the table (internals, backend extras such as
``world``) pass through untouched.
"""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple, Optional, Tuple

from .request import Request, _wait_child

__all__ = [
    "OPS", "InterceptedCommunicator", "InterceptedRequest", "Op",
    "find_layer", "wrap_communicator",
]


class Op(NamedTuple):
    """One row of the op table.

    ``record`` is the name the tracer records under (nonblocking variants
    use their blocking op's).
    ``payload`` is the position of the payload this rank hands over —
    ``None`` for ops that hand over nothing (receive sides, ``barrier``).
    ``nonblocking`` ops return a request; a ``droppable`` send's message
    may be swallowed by fault injection.
    """

    record: str
    payload: Optional[int] = None
    nonblocking: bool = False
    droppable: bool = False

    def payload_of(self, args: Tuple[Any, ...]) -> Any:
        """The payload argument of one call, ``None`` if there is none."""
        if self.payload is None or len(args) <= self.payload:
            return None
        return args[self.payload]


#: The op table: every communicator method a proxy intercepts.
OPS = {
    "send": Op("send", 0, droppable=True),
    "isend": Op("send", 0, nonblocking=True, droppable=True),
    "recv": Op("recv"),
    "irecv": Op("recv", nonblocking=True),
    "bcast": Op("bcast", 0),
    "gather": Op("gather", 0),
    "gatherv_rows": Op("gatherv", 0),
    "allreduce": Op("allreduce", 0),
    "barrier": Op("barrier"),
}

OnComplete = Callable[[Any, float, float], None]


class InterceptedRequest(Request):
    """Request proxy calling ``on_complete(result, t_start, duration_s)``
    once, from whichever ``wait``/``test`` call observes completion, with
    that call's time window.  Every other attribute (``cancel`` included)
    is the inner request's."""

    __slots__ = ("_inner", "_on_complete")

    def __init__(self, inner: Any, on_complete: OnComplete) -> None:
        self._inner = inner
        self._on_complete: Optional[OnComplete] = on_complete

    def _complete(self, result: Any, t_start: float) -> None:
        on_complete = self._on_complete
        if on_complete is not None:
            self._on_complete = None
            on_complete(result, t_start, time.perf_counter() - t_start)

    def wait(self, timeout: Optional[float] = None) -> Any:
        # _wait_child forwards timeout= only to requests that take it
        # (foreign mpi4py requests put status first).
        t0 = time.perf_counter()
        result = _wait_child(self._inner, timeout)
        self._complete(result, t0)
        return result

    def test(self) -> Tuple[bool, Any]:
        t0 = time.perf_counter()
        done, result = self._inner.test()
        if done:
            self._complete(result, t0)
        return done, result

    def __getattr__(self, name: str) -> Any:
        if name in InterceptedRequest.__slots__:
            raise AttributeError(name)
        return getattr(self._inner, name)


class InterceptedCommunicator:
    """Transparent proxy base.  A concern implements :meth:`_wrap`, which
    builds one op's wrapper (on first use; it is then cached on the
    instance, so steady-state dispatch is one instance-dict hit), and
    :meth:`_rewrap`, the same concern over another communicator."""

    def __init__(self, comm: Any) -> None:
        self._comm = comm

    @property
    def inner(self) -> Any:
        """The wrapped communicator (the next layer of the chain)."""
        return self._comm

    @property
    def rank(self) -> int:
        return self._comm.rank

    @property
    def size(self) -> int:
        return self._comm.size

    def Get_rank(self) -> int:
        return self._comm.rank

    def Get_size(self) -> int:
        return self._comm.size

    def split(self, color: Optional[int], key: int = 0) -> Any:
        sub = self._comm.split(color, key)
        return None if sub is None else self._rewrap(sub)

    def dup(self) -> Any:
        return self._rewrap(self._comm.dup())

    def _rewrap(self, comm: Any) -> "InterceptedCommunicator":
        raise NotImplementedError

    def _wrap(self, name: str, op: Op, target: Callable[..., Any]) -> Any:
        raise NotImplementedError

    def __getattr__(self, name: str) -> Any:
        op = OPS.get(name)
        if op is None:
            if name.startswith("_"):
                raise AttributeError(name)
            return getattr(self._comm, name)
        wrapper = self._wrap(name, op, getattr(self._comm, name))
        wrapper.__name__ = name
        self.__dict__[name] = wrapper
        return wrapper

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self._comm!r})"


def find_layer(comm: Any, kind: type) -> Any:
    """The first ``kind`` proxy along ``comm``, ``comm.inner``, …, or ``None``."""
    while comm is not None and not isinstance(comm, kind):
        comm = getattr(comm, "inner", None)
    return comm


def wrap_communicator(comm: Any, *, trace: bool = False) -> Any:
    """Apply every active concern to ``comm``, at most once per chain.

    The one place that decides the wrapper order: the metrics observer
    (while :mod:`repro.obs` is installed with metrics) innermost, the
    fault injector (while :mod:`repro.faults` is installed) outside it,
    so injected delays are metered like genuine slowness, and with
    ``trace`` a :class:`~repro.smpi.tracer.CommTracer` outermost.  A
    concern the chain already holds is skipped; one missing from an
    already wrapped chain (a session adopting a traced communicator) is
    added outside it.  With none active ``comm`` itself is returned: the
    disabled path keeps the raw backend object.
    """
    from ..faults.runtime import inject_communicator
    from ..obs.runtime import observe_communicator
    from .tracer import CommTracer

    comm = inject_communicator(observe_communicator(comm))
    if trace and find_layer(comm, CommTracer) is None:
        comm = CommTracer(comm)
    return comm
