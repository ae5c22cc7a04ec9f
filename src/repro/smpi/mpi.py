"""Thin adapter exposing the :mod:`repro.smpi` communicator protocol over
a real ``mpi4py`` communicator.

The protocol (see :mod:`repro.smpi.factory`) deliberately mirrors mpi4py's
lowercase pickle methods, so most operations delegate one-to-one.  The
adapter fills the gaps:

* ``gatherv_rows`` and ``allreduce`` come from the same
  :class:`~repro.smpi.derived.DerivedCollectivesMixin` the threaded
  backend uses, so reductions stay a deterministic rank-ordered fold —
  bit-identical to the in-process backends instead of depending on the
  MPI library's reduction tree;
* ``split``/``dup`` — re-wrap the child communicator in the adapter.

mpi4py is optional: this module imports without it, and
:data:`HAVE_MPI4PY` tells callers (and the test suite, which skips) whether
the ``"mpi4py"`` backend is usable.  Run adapted programs under a real
launcher, e.g. ``mpiexec -n 4 python driver.py``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .derived import DerivedCollectivesMixin
from .exceptions import SmpiError

__all__ = ["HAVE_MPI4PY", "Mpi4pyCommunicator"]

try:  # pragma: no cover - exercised only where mpi4py is installed
    from mpi4py import MPI as _MPI

    HAVE_MPI4PY = True
except ImportError:  # pragma: no cover - the common case in this container
    _MPI = None
    HAVE_MPI4PY = False


class Mpi4pyCommunicator(DerivedCollectivesMixin):
    """Wrap an ``mpi4py`` communicator behind the smpi protocol.

    Parameters
    ----------
    mpi_comm:
        An ``mpi4py.MPI.Comm``; defaults to ``COMM_WORLD``.
    irecv_buffer_bytes:
        Size of the receive buffer allocated per ``irecv``.  mpi4py's
        pickle-mode ``irecv`` cannot probe-size a preposted receive and
        *truncates* messages larger than its (small) default buffer, so
        every preposted receive here carries an explicit buffer.  Raise
        this when preposting receives for large payloads (e.g. gathered
        mode blocks); blocking ``recv`` probe-sizes and is unaffected.
    """

    def __init__(
        self, mpi_comm: Any = None, irecv_buffer_bytes: int = 1 << 24
    ) -> None:
        if not HAVE_MPI4PY:
            raise SmpiError(
                "the 'mpi4py' backend requires the mpi4py package, which is "
                "not installed; use the 'threads' or 'self' backend instead"
            )
        if int(irecv_buffer_bytes) < 1:
            raise SmpiError(
                f"irecv_buffer_bytes must be >= 1, got {irecv_buffer_bytes!r}"
            )
        self._comm = _MPI.COMM_WORLD if mpi_comm is None else mpi_comm
        self._irecv_buffer_bytes = int(irecv_buffer_bytes)
        self.rank = int(self._comm.Get_rank())
        self.size = int(self._comm.Get_size())

    @property
    def irecv_buffer_bytes(self) -> int:
        """Per-``irecv`` preposted receive-buffer size (bytes).  Propagates
        through :meth:`split`/:meth:`dup`; configure it via
        :class:`repro.config.BackendConfig.irecv_buffer_bytes`."""
        return self._irecv_buffer_bytes

    # -- mpi4py-style accessors ------------------------------------------
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._comm.send(obj, dest=dest, tag=tag)

    def recv(self, source: int = -1, tag: int = -1) -> Any:
        return self._comm.recv(
            source=_MPI.ANY_SOURCE if source == -1 else source,
            tag=_MPI.ANY_TAG if tag == -1 else tag,
        )

    def isend(self, obj: Any, dest: int, tag: int = 0):
        return self._comm.isend(obj, dest=dest, tag=tag)

    def irecv(self, source: int = -1, tag: int = -1):
        # Explicit buffer: see irecv_buffer_bytes in the class docstring.
        return self._comm.irecv(
            bytearray(self._irecv_buffer_bytes),
            source=_MPI.ANY_SOURCE if source == -1 else source,
            tag=_MPI.ANY_TAG if tag == -1 else tag,
        )

    # -- collectives -------------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        return self._comm.bcast(obj, root=root)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        return self._comm.gather(obj, root=root)

    def barrier(self) -> None:
        self._comm.barrier()

    # (gatherv_rows / allreduce come from DerivedCollectivesMixin —
    # deterministic rank-ordered folds, shared with the threaded backend.)

    # -- communicator management -------------------------------------------
    def split(
        self, color: Optional[int], key: int = 0
    ) -> Optional["Mpi4pyCommunicator"]:
        mpi_color = _MPI.UNDEFINED if color is None else int(color)
        child = self._comm.Split(mpi_color, int(key))
        if child == _MPI.COMM_NULL:
            return None
        return Mpi4pyCommunicator(child, self._irecv_buffer_bytes)

    def dup(self) -> "Mpi4pyCommunicator":
        return Mpi4pyCommunicator(self._comm.Dup(), self._irecv_buffer_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mpi4pyCommunicator(rank={self.rank}, size={self.size})"
