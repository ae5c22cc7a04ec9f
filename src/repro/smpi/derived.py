"""Collectives derived purely from the protocol primitives.

``gatherv_rows`` and the deterministic ``allreduce`` need nothing
backend-specific: they are compositions of ``gather``/``bcast``.  Keeping
them in one mixin shared by :class:`~repro.smpi.communicator.Communicator`
and :class:`~repro.smpi.mpi.Mpi4pyCommunicator` guarantees the backends
cannot drift (and that reductions stay a deterministic rank-ascending left
fold everywhere, instead of depending on an MPI library's reduction tree).

:class:`~repro.smpi.selfcomm.SelfCommunicator` intentionally does *not* use
this mixin: its collectives short-circuit to the identity without the
gather/bcast round trips.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from .exceptions import SmpiError
from .reduction import ReduceOp

__all__ = [
    "DerivedCollectivesMixin",
    "as_row_block",
    "copy_result_into",
    "fold_output_usable",
]


def as_row_block(sendbuf: Any) -> np.ndarray:
    """``sendbuf`` as the 2-D row block ``gatherv_rows`` requires.

    The single check every backend makes before any traffic, so a block
    of the wrong rank fails the same way everywhere.
    """
    arr = np.asarray(sendbuf)
    if arr.ndim != 2:
        raise SmpiError(
            f"gatherv_rows expects a 2-D row block, got ndim={arr.ndim}"
        )
    return arr


def copy_result_into(result: Any, out: Optional[np.ndarray]) -> Any:
    """Land ``result`` in the caller's ``out`` buffer when it fits.

    The receive-side half of ``allreduce(..., out=)``: a writable,
    exactly-matching ``out`` is filled and returned (the caller gets its
    own buffer back instead of a shared read-only broadcast snapshot);
    anything else returns ``result`` unchanged.
    """
    if (
        isinstance(out, np.ndarray)
        and isinstance(result, np.ndarray)
        and out.flags.writeable
        and out.shape == result.shape
        and out.dtype == result.dtype
    ):
        np.copyto(out, result)
        return out
    return result


def fold_output_usable(
    op: ReduceOp, out: Optional[np.ndarray], values: Sequence[Any]
) -> bool:
    """Can ``op`` fold ``values`` straight into ``out``?  (The op has a
    ufunc, every contribution is an array of ``out``'s shape, their
    promoted dtype is exactly ``out``'s, and ``out`` is writable.)"""
    if op.ufunc is None:
        return False
    if not isinstance(out, np.ndarray) or not out.flags.writeable:
        return False
    for value in values:
        if not isinstance(value, np.ndarray) or value.shape != out.shape:
            return False
    return np.result_type(*[value.dtype for value in values]) == out.dtype


class DerivedCollectivesMixin:
    """``gatherv_rows`` and ``allreduce``, built on the host class's
    ``gather``/``bcast``."""

    # provided by the host class
    rank: int
    size: int

    def gatherv_rows(
        self, sendbuf: np.ndarray, root: int = 0
    ) -> Optional[np.ndarray]:
        """Gather per-rank row blocks into one vertically stacked array.

        Convenience equivalent of MPI ``Gatherv`` for the common "assemble
        the distributed modes at rank 0" operation (paper's
        ``_gather_modes``).  Row counts may differ across ranks; dtypes
        promote as in ``np.concatenate``.  (The threaded backend overrides
        this with a fully zero-copy path; this generic version serves any
        backend that only provides the protocol primitives.)
        """
        arr = as_row_block(sendbuf)
        blocks = self.gather(arr, root=root)  # type: ignore[attr-defined]
        if blocks is None:
            return None
        arrays = [np.asarray(block) for block in blocks]
        width = arr.shape[1]
        total = sum(int(block.shape[0]) for block in arrays)
        dtype = np.result_type(*[block.dtype for block in arrays])
        out = np.empty((total, width), dtype=dtype)
        offset = 0
        for peer, block in enumerate(arrays):
            if block.ndim != 2 or block.shape[1] != width:
                # Guard explicitly: a stray (r, 1) block would otherwise
                # numpy-broadcast across the full output width.
                raise SmpiError(
                    f"gatherv_rows: rank {peer} sent a block of shape "
                    f"{block.shape}, expected ({block.shape[0]}, {width})"
                )
            out[offset : offset + block.shape[0]] = block
            offset += block.shape[0]
        return out

    def allreduce(
        self, obj: Any, op: ReduceOp, out: Optional[np.ndarray] = None
    ) -> Any:
        """Reduce then broadcast; every rank returns the reduced value.

        ``out`` (optional, per-rank) is a preallocated destination for
        elementwise array reductions: the root folds every contribution
        straight into its ``out`` (:meth:`ReduceOp.fold_into` — zero
        intermediates), receivers copy the broadcast result into theirs,
        and each rank gets back its own *writable* buffer — so a streaming
        loop's repeated reductions reuse one workspace buffer instead of
        allocating the result per call.  An unusable ``out`` (shape/dtype
        mismatch, an op without a ufunc) degrades to the allocating fold,
        never to an error; the result is then the usual shared read-only
        broadcast snapshot on non-root ranks.
        """
        gathered = self.gather(obj, root=0)  # type: ignore[attr-defined]
        if self.rank == 0:
            assert gathered is not None
            if fold_output_usable(op, out, gathered):
                reduced = op.fold_into(out, gathered)
            else:
                reduced = op.reduce_sequence(gathered)
        else:
            reduced = None
        reduced = self.bcast(reduced, root=0)  # type: ignore[attr-defined]
        if self.rank != 0:
            return copy_result_into(reduced, out)
        return reduced
