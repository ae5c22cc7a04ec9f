"""Reduction operations for ``allreduce``.

Each :class:`ReduceOp` is a named, associative binary operation.  The one
the algorithms use, :data:`SUM`, works elementwise on NumPy arrays and on
plain Python scalars.

Reductions are applied in rank order (``((v0 op v1) op v2) ...``) so that
floating-point results are deterministic for a fixed rank count — the same
guarantee most MPI implementations give in practice for a fixed topology.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ReduceOp",
    "SUM",
]


class ReduceOp:
    """A named associative binary reduction operation.

    Parameters
    ----------
    name:
        Display name (e.g. ``"SUM"``).
    fn:
        Binary callable combining two operands.
    ufunc:
        Optional NumPy ufunc computing the same elementwise operation with
        ``out=`` support.  When present, :meth:`fold_into` accumulates a
        whole reduction into a caller-provided buffer without allocating
        any intermediate — the allocation-free ``allreduce(..., out=)``
        lane uses it; ops without one always take the allocating fold.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[Any, Any], Any],
        ufunc: Optional[Callable[..., Any]] = None,
    ) -> None:
        self.name = name
        self._fn = fn
        self.ufunc = ufunc

    def __call__(self, a: Any, b: Any) -> Any:
        return self._fn(a, b)

    def reduce_sequence(self, values: Sequence[Any]) -> Any:
        """Left-fold ``values`` in order; requires at least one value."""
        if len(values) == 0:
            raise ValueError(f"cannot {self.name}-reduce an empty sequence")
        acc = values[0]
        for value in values[1:]:
            acc = self._fn(acc, value)
        return acc

    def fold_into(self, out: np.ndarray, values: Sequence[Any]) -> np.ndarray:
        """Left-fold array ``values`` into preallocated ``out``.

        Identical numbers to :meth:`reduce_sequence` (same rank-ascending
        fold, same elementwise operation), but every partial lands in
        ``out`` via the op's ufunc — zero intermediates.
        """
        if len(values) == 0:
            raise ValueError(f"cannot {self.name}-reduce an empty sequence")
        np.copyto(out, values[0])
        for value in values[1:]:
            self.ufunc(out, value, out=out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReduceOp({self.name})"


SUM = ReduceOp("SUM", lambda a, b: a + b, ufunc=np.add)
