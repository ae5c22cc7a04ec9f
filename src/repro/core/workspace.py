"""Reusable factorization/stacking workspaces for the streaming hot path.

The paper's claim is that per-batch cost is independent of the number of
snapshots seen; the per-step *constant* should then be dominated by FLOPs,
not by the allocator.  Every :class:`~repro.core.parallel.ParSVDParallel`
owns one :class:`Workspace`, which keeps one named buffer per recurring
intermediate — the fused scale-and-concat input (factored in place by the
local QR, whose reflectors then live in it), the double-buffered local
modes (the destination of the reflector apply), the TSQR ``R`` stacks —
so a steady-state streaming loop writes every large intermediate into
memory it already owns (``np.multiply``/``np.matmul`` with ``out=``,
LAPACK with ``overwrite_a``) instead of allocating fresh
``(M_i, K + batch)`` arrays per step.  The buffers LAPACK factors in
place, and the modes the apply writes, are Fortran-ordered.  The blocking
:func:`~repro.core.tsqr.tsqr_gather`/:func:`~repro.core.tsqr.tsqr_tree`
use a private workspace per call.

Buffers are keyed by name and re-created only when the requested shape or
dtype changes (e.g. a different batch width), so the workspace is safe for
ragged streams — it simply stops saving allocations at shape boundaries.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """A named pool of reusable, exactly-shaped scratch arrays."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    @staticmethod
    def _matches(
        buf: np.ndarray, shape: Tuple[int, ...], dtype, order: str
    ) -> bool:
        return (
            buf.shape == tuple(shape)
            and buf.dtype == dtype
            and (
                buf.flags.f_contiguous
                if order == "F"
                else buf.flags.c_contiguous
            )
        )

    def get(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        order: str = "C",
    ) -> np.ndarray:
        """The buffer registered under ``name``, (re)allocated to match
        ``shape``/``dtype``/``order``.  Contents are unspecified — callers
        overwrite.  ``order="F"`` suits buffers handed to LAPACK with
        ``overwrite_a`` (in-place factorization needs Fortran layout).
        """
        buf = self._buffers[name] = self.take(name, shape, dtype, order)
        return buf

    def take(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        order: str = "C",
    ) -> np.ndarray:
        """Like :meth:`get`, but *removes* the buffer from the pool.

        Use when the result escapes the workspace (e.g. it becomes the
        instance's new ``_ulocal``): the pool forgets the array so a later
        :meth:`get`/:meth:`take` of the same name cannot hand out memory
        something else still references.  Returning the previous same-name
        escapee to the pool (:meth:`give_back`) makes two calls alternate
        between two stable buffers (double buffering).
        """
        buf = self._buffers.pop(name, None)
        if buf is None or not self._matches(buf, shape, dtype, order):
            buf = np.empty(shape, dtype=dtype, order=order)
        return buf

    def give_back(self, name: str, buf: np.ndarray) -> None:
        """Return an escaped buffer to the pool under ``name`` (it must no
        longer be referenced by live results)."""
        self._buffers[name] = buf
