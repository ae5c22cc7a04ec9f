"""Approximate Partitioned Method Of Snapshots (paper Algorithm 2).

APMOS computes the truncated *global* left singular vectors of a snapshot
matrix that is row-block distributed over the ranks of a domain-decomposed
simulation (rank ``i`` owns ``A_i`` of shape ``(M_i, N)``):

1. each rank computes its local right singular vectors,
   ``A_i = U_i S_i V_i^T``, and truncates ``(V_i, S_i)`` to ``r1`` columns;
2. the weighted matrices ``W_i = V_i S_i`` are gathered at rank 0 and
   stacked column-wise into ``W`` (an ``N x (r1 * nranks)`` matrix);
3. rank 0 factors ``W = X Lambda Y^T`` (dense or randomized) and broadcasts
   the leading ``r2`` columns of ``X`` and values ``Lambda``;
4. every rank assembles its slice of the global modes,
   ``U^i_j = (1 / Lambda_j) A_i X_j``.

``r1`` trades accuracy against gather volume; ``r2`` is the number of global
modes produced.  Paper defaults: ``r1 = 50``, ``r2 = 5``.

The gather of step 2 may be done in two levels: with a ``group_size`` ``g``
and ``1 < g < nranks`` (:func:`grouped`), each group of ``g`` consecutive
ranks first gathers its ``W_i`` at its leader, which keeps a rank-``r1``
surrogate ``X_g diag(Lambda_g)`` of the group's stack, and only the
surrogates travel to rank 0.  The root factorization then has width
``r1 * ceil(nranks / g)`` instead of ``r1 * nranks``.  The stacking is
associative, so the second truncation is of the same nature as ``r1``'s
own: exact whenever a group's stacked ``W`` has rank ``<= r1``.  Any other
group size is the single gather.

Note on the weighting: Algorithm 2 writes ``W_i = V_i (S_i)^T`` with
``S_i`` the diagonal matrix of local singular values, i.e. each retained
right vector is scaled by its singular value — ``V_i * s_i`` column-wise,
which is what :func:`generate_right_vectors` returns.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import ShapeError
from ..utils.linalg import as_floating, economy_svd
from ..utils.rng import RngLike
from .randomized import low_rank_svd

__all__ = [
    "generate_right_vectors",
    "stack_gathered",
    "grouped",
    "apmos_svd",
]

#: Relative threshold below which singular values from a direct SVD are
#: considered zero (rank-deficient blocks would otherwise inject noise
#: directions).
_RELATIVE_RANK_TOL_SVD = 1e-12
#: The method-of-snapshots route squares the conditioning (eigenvalues of
#: the Gram matrix carry O(eps * ||A||^2) noise), so after the square root
#: the usable relative accuracy floor is O(sqrt(eps)).
_RELATIVE_RANK_TOL_MOS = 10.0 * float(np.finfo(float).eps) ** 0.5


def _leading(values: np.ndarray, cap: int, rel_tol: float) -> int:
    """How many of the descending ``values`` to keep: at most ``cap``,
    each above ``rel_tol`` times the largest, and always at least one."""
    floor = rel_tol * values[0] if values.size else 0.0
    return max(int(np.sum(values[:cap] > floor)), 1)


def generate_right_vectors(
    a_local: np.ndarray, r1: int, method: str = "auto"
) -> Tuple[np.ndarray, np.ndarray]:
    """Local right singular vectors and values, truncated to ``r1``.

    Parameters
    ----------
    a_local:
        ``(M_i, N)`` local row block of the snapshot matrix.
    r1:
        Maximum number of retained columns (clipped to the numerical rank).
    method:
        ``"svd"`` — economy SVD of ``A_i``;
        ``"mos"`` — method of snapshots: eigendecomposition of the ``N x N``
        Gram matrix ``A_i^T A_i`` (cheaper when ``M_i >> N``, the regime the
        paper targets);
        ``"auto"`` — ``"mos"`` when ``M_i >= 4 N``, else ``"svd"``.

    Returns
    -------
    (V, s):
        ``V`` of shape ``(N, k)`` and ``s`` of shape ``(k,)`` with
        ``k = min(r1, numerical rank)``; columns ordered by descending ``s``.
    """
    a_local = as_floating(a_local, "a_local")
    if a_local.ndim != 2:
        raise ShapeError(f"a_local must be 2-D, got ndim={a_local.ndim}")
    if r1 <= 0:
        raise ShapeError(f"r1 must be positive, got {r1}")
    m_i, n = a_local.shape

    if method == "auto":
        method = "mos" if m_i >= 4 * n else "svd"
    if method == "svd":
        _, s, vt = economy_svd(a_local)
        v = vt.T
        rel_tol = _RELATIVE_RANK_TOL_SVD
    elif method == "mos":
        gram = a_local.T @ a_local
        evals, evecs = np.linalg.eigh(gram)
        # eigh returns ascending order; flip to descending singular order.
        evals = evals[::-1]
        v = evecs[:, ::-1]
        s = np.sqrt(np.clip(evals, 0.0, None))
        rel_tol = _RELATIVE_RANK_TOL_MOS
    else:
        raise ShapeError(f"unknown method {method!r} (use 'auto'|'svd'|'mos')")

    k = _leading(s, r1, rel_tol)
    return v[:, :k], s[:k]


def stack_gathered(wlocals: list) -> np.ndarray:
    """Column-stack the gathered per-rank ``W_i`` blocks into ``W``.

    Mirrors the rank-0 concatenation loop of Listing 3.  Blocks may have
    different column counts (ranks may have different numerical ranks).
    """
    if not wlocals:
        raise ShapeError("gathered W list is empty")
    return np.concatenate(wlocals, axis=1)


def grouped(size: int, group_size: Optional[int]) -> bool:
    """Whether APMOS over ``size`` ranks reduces ``W`` within groups of
    ``group_size`` before the root gather.  A group of one rank, or one
    group holding every rank, is the single gather."""
    return group_size is not None and 1 < group_size < size


def _factor(
    blocks: list, cap: int, low_rank: bool = False, **sketch
) -> Tuple[np.ndarray, np.ndarray]:
    """Factor the stacked ``W = X Lambda Y^T`` and keep its leading (at
    most ``cap``) columns of ``X`` and values above the noise floor, as
    views into the factors."""
    w = stack_gathered(blocks)
    if low_rank:
        x, lam = low_rank_svd(w, cap, **sketch)
    else:
        x, lam, _ = economy_svd(w)
    # Guard the 1/Lambda_j division downstream: drop directions whose
    # value sits at the numerical-noise floor of the gathered W.
    keep = _leading(lam, cap, _RELATIVE_RANK_TOL_MOS)
    return x[:, :keep], lam[:keep]


def apmos_svd(
    comm,
    a_local: np.ndarray,
    r1: int,
    r2: int,
    group_size: Optional[int] = None,
    low_rank: bool = False,
    oversampling: int = 0,
    power_iters: int = 0,
    rng: RngLike = None,
    method: str = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """One-shot distributed SVD via APMOS (Algorithm 2 / Listing 3).

    Parameters
    ----------
    comm:
        Communicator (``repro.smpi`` or any object with the same surface).
    a_local:
        ``(M_i, N)`` local row block; all ranks must agree on ``N``.
    r1, r2:
        Truncation factors (see module docstring).
    group_size:
        Ranks per group of the two-level gather, used when
        :func:`grouped` (``1 < group_size < comm.size``): group leaders
        factor their group's stack densely and keep ``r1`` columns before
        the root gather.  ``None``, ``1`` or ``>= comm.size`` run the
        paper's single gather; ``< 1`` raises :class:`ShapeError`.
    low_rank:
        Use the randomized SVD for the rank-0 factorization of ``W``.
    oversampling, power_iters, rng:
        Randomized-SVD parameters (only used when ``low_rank=True``).
    method:
        Local right-vector scheme passed to :func:`generate_right_vectors`.

    Returns
    -------
    (u_local, s):
        ``u_local`` — the ``(M_i, k)`` local slice of the global left
        singular vectors; ``s`` — the ``(k,)`` global singular values,
        ``k = min(r2, rank of W)``.  Every rank returns the same ``s``.
    """
    if group_size is not None and group_size < 1:
        raise ShapeError(f"group_size must be >= 1, got {group_size}")
    a_local = as_floating(a_local, "a_local")
    vlocal, slocal = generate_right_vectors(a_local, r1, method=method)

    # W_i = V_i * s_i (column scaling by the local singular values).
    # vlocal is freshly factored, so the scaling is applied in place.
    w = vlocal
    w *= slocal[np.newaxis, :]

    root_comm = comm
    if grouped(comm.size, group_size):
        # Each group leader replaces its members' W_i by the rank-r1
        # surrogate X_g diag(Lambda_g) of their stack; only the leaders
        # (global rank 0 leads group 0) join the root gather.
        group = comm.split(color=comm.rank // group_size)
        members = group.gather(w, root=0)
        leader = group.rank == 0
        if leader:
            xg, lamg = _factor(members, r1)
            w = xg * lamg[np.newaxis, :]
        root_comm = comm.split(color=0 if leader else None)

    x = lam = None
    if root_comm is not None:
        blocks = root_comm.gather(w, root=0)
        if root_comm.rank == 0:
            x, lam = _factor(
                blocks,
                r2,
                low_rank,
                oversampling=oversampling,
                power_iters=power_iters,
                rng=rng,
            )
            x = np.ascontiguousarray(x)
    x = comm.bcast(x, root=0)
    lam = comm.bcast(lam, root=0)

    # Local assembly: U^i = A_i X diag(1/Lambda) — one GEMM for all modes
    # (the paper's listing loops mode-by-mode; the batched product is
    # algebraically identical).  The GEMM output is scratch, so the
    # 1/Lambda scaling happens in place instead of allocating a second
    # (M_i, k) array.
    u_local = a_local @ x
    u_local /= lam[np.newaxis, :]
    return u_local, lam
