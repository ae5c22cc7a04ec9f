"""Distributed tall-skinny QR (paper Listing 4 and Benson et al. 2013).

The streaming update of the parallel class needs a QR factorization of a
row-block-distributed tall-skinny matrix ``A`` (rows = grid points spread
over ranks, columns = ``K + batch`` ≪ rows).  There is one implementation,
:class:`TsqrStep`, a *step* split into a post and a finish phase that
reduces the ranks' small ``R`` factors up a reduction tree (TSQR is
defined on any such tree: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
Comput. 34(1), 2012).  The two ``qr_variant`` values differ only in the
tree's fan-in (:func:`tree_fan_in`; the tree itself is
:func:`reduction_schedule`):

``"gather"``
    The paper's scheme (Listing 4), the flat tree of fan-in ``p``: every
    rank takes a local QR, rank 0 stacks all ``p`` small ``R`` factors,
    refactors them once and sends each rank its slice of the correction
    factor.  Simple, but rank 0 handles ``p * n x n``.
``"tree"``
    The communication-optimal binary-reduction TSQR, fan-in 2: ``R``
    factors merge pairwise up ``ceil(log2 p)`` levels, then the per-level
    correction factors are pushed back down.  Same result (both are
    canonicalised to ``diag(R) >= 0``), lower critical-path volume — the
    A5 ablation bench contrasts the two.

Constructing a step is the *post* phase (receives preposted before the
local QR, local factor taken, a leaf's ``R`` shipped); :meth:`TsqrStep.finish`
merges the absorbed ``R`` factors, runs a root-side ``reduce_fn(R)`` —
e.g. the small SVD of the streaming update — and sends a **fused** reply
carrying each child's correction block together with ``reduce_fn``'s
results in a single message.

The local QR never forms its ``Q``: it factors the block in place with
LAPACK's recursive compact-WY ``?geqrt`` and keeps the reflectors
(:class:`~repro.utils.linalg.HouseholderQ`) in it.  The ``R`` stacks the
step refactors live in its :class:`~repro.core.workspace.Workspace`.  The
caller turns the finished step into its result with one apply of those
reflectors to the small fused correction — one tall GEMM, straight into
the new local modes on the streaming path.

Blocking means post, then finish right away: :func:`tsqr_gather` /
:func:`tsqr_tree` build a step over a private copy of the caller's block
and finish it at once with an identity reduce, so ``R`` travels in the
fused reply, and :func:`finish_now` runs the one apply.  Both return
``(Q_local, R)`` with ``Q_local`` a fresh explicit row block of the global
orthonormal factor and ``R`` replicated on every rank.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..exceptions import ShapeError
from ..obs import runtime as _obs
from ..utils.linalg import as_floating, qr_positive
from .workspace import Workspace

__all__ = [
    "TsqrStep",
    "finish_now",
    "reduction_schedule",
    "tree_fan_in",
    "tsqr_gather",
    "tsqr_tree",
]

#: Tags of the ``R`` factors going up and the fused replies coming down,
#: each plus the tree level.  A step finishes in the call that posts it,
#: so steps never share the communicator.
_TAG_UP = 400
_TAG_DOWN = 500


def tree_fan_in(qr_variant: str, size: int) -> int:
    """Fan-in of ``qr_variant``'s reduction tree over ``size`` ranks: the
    flat tree (``size``) for the paper's ``"gather"``, the binary tree
    (2) for ``"tree"``."""
    if qr_variant == "gather":
        return size
    if qr_variant == "tree":
        return 2
    raise ValueError(f"unknown qr_variant {qr_variant!r}")


def reduction_schedule(
    rank: int, size: int, fan_in: int
) -> Tuple[List[Tuple[int, List[int]]], Optional[Tuple[int, int]]]:
    """Where ``rank`` sits in the reduction tree of fan-in ``fan_in``.

    At level ``d`` (stride ``s = fan_in**d``) a rank divisible by
    ``fan_in * s`` absorbs the ranks ``rank + j * s`` (``0 < j <
    fan_in``) that exist; every other rank left in the tree sends its
    ``R`` to the rank that absorbs it and leaves.  Returns ``(merges,
    parent)``: ``merges`` lists ``(level, children)`` for each level at
    which ``rank`` absorbs, lowest first; ``parent`` is ``(parent rank,
    level)``, or ``None`` for the root, rank 0.
    """
    if fan_in < 2 and size > 1:
        raise ValueError(f"fan-in must be at least 2, got {fan_in}")
    merges = []
    stride, level = 1, 0
    while stride < size:
        span = stride * fan_in
        if rank % span:
            return merges, (rank - rank % span, level)
        children = list(range(rank + stride, min(rank + span, size), stride))
        if children:
            merges.append((level, children))
        stride, level = span, level + 1
    return merges, None


def _validate_local(a_local: np.ndarray) -> np.ndarray:
    a_local = as_floating(a_local, "local block")
    if a_local.ndim != 2:
        raise ShapeError(f"local block must be 2-D, got ndim={a_local.ndim}")
    return a_local


def _identity_reduce(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The plain-TSQR reduce: no combine factor, ``R`` rides the reply."""
    return np.eye(r.shape[0], dtype=r.dtype), r


def finish_now(step, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
    """Finish ``step`` at once and run its one reflector apply.

    Returns ``(q_local, *rest)``: ``q_local = q1 @ fused`` is a fresh
    F-ordered array holding this rank's explicit row block of the global
    ``Q`` times ``reduce_fn``'s combine factor, ``rest`` the remaining
    results of ``reduce_fn`` (replicated).
    """
    q1, fused, *rest = step.finish(reduce_fn)
    with _obs.span("tsqr.apply_q", phase="qr", rank=step._comm.rank):
        q_local = q1.apply(fused)
    return (q_local, *rest)


def _blocking_tsqr(qr_variant, comm, a_local) -> Tuple[np.ndarray, np.ndarray]:
    """Post a step over a private F-ordered copy of ``a_local`` (the step
    factors its input in place) and finish it at once."""
    step = TsqrStep(comm, np.array(a_local, order="F"), Workspace(), qr_variant)
    return finish_now(step, _identity_reduce)


def tsqr_gather(comm, a_local: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gather-based TSQR (the paper's ``parallel_qr`` communication pattern).

    Parameters
    ----------
    comm:
        Communicator.
    a_local:
        ``(M_i, n)`` local row block, all ranks agreeing on ``n`` and with
        ``sum_i M_i >= n`` for a full-rank result.  It is left unchanged:
        the step factors a private copy.

    Returns
    -------
    (q_local, r):
        ``q_local`` — fresh ``(M_i, n)`` row block of the global ``Q``;
        ``r`` — the global ``(n, n)`` upper-triangular factor, replicated.
    """
    return _blocking_tsqr("gather", comm, a_local)


def tsqr_tree(comm, a_local: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-reduction TSQR (Benson, Gleich & Demmel 2013).

    The reduction tree of fan-in 2: ``ceil(log2 p)`` levels, at level
    ``d`` each rank divisible by ``2^(d+1)`` stacking its ``R`` over
    that of ``rank + 2^d`` and refactoring; the correction factors then
    travel back down the same tree.  Arguments and results are as in
    :func:`tsqr_gather`.

    Results match :func:`tsqr_gather` to round-off because both are
    canonicalised (``diag(R) >= 0``), which the tests assert.
    """
    return _blocking_tsqr("tree", comm, a_local)


def _abort_request(request: object) -> None:
    """Best-effort cancel of one in-flight request during an abort/drain.

    Receives that already completed (or foreign request objects without a
    ``cancel``) are simply left alone — abort is about releasing the
    *pending* ones so a crashed step never trips the leak detector or
    emits un-awaited ResourceWarnings."""
    cancel = getattr(request, "cancel", None)
    if cancel is None:
        return
    try:
        cancel()
    except Exception:  # already done / backend-specific refusal
        pass


def _frozen_copy(block: np.ndarray) -> np.ndarray:
    """An owning, read-only snapshot of ``block`` — the communicator's
    zero-copy lane ships such snapshots without a second copy, even
    inside tuple payloads.  A fresh buffer-owning input (e.g. a GEMM
    product) is frozen in place; views and writable borrows are copied.
    """
    if block.base is None and block.flags.owndata and block.flags.writeable:
        block.flags.writeable = False
        return block
    snapshot = np.array(block, copy=True)
    snapshot.flags.writeable = False
    return snapshot


class TsqrStep:
    """One in-flight TSQR + reduce step over ``qr_variant``'s reduction
    tree (:func:`reduction_schedule` of fan-in :func:`tree_fan_in`).

    Construction is the *post* phase.  Every receive this rank will need
    — the ``R`` of each child it absorbs, and the fused reply from its
    parent — is preposted **before** the local QR (the MPI prepost
    idiom: children's traffic lands while this rank factors its own
    block).  A leaf, which absorbs nobody, has its final ``R`` after the
    local QR and ships it at once.  Sends stay in ``_outbox`` until
    :meth:`finish` so backends whose send requests own the wire buffer
    (mpi4py pickle mode) cannot have it collected mid-flight.

    ``a_local`` is the caller's scratch: a writeable F-ordered block is
    factored in place (any other is copied first), and the local QR keeps
    its ``Q`` as reflectors (``q1``, a
    :class:`~repro.utils.linalg.HouseholderQ`) in it.  The ``R`` stacks
    the step refactors are pooled in ``workspace``.  :meth:`finish`
    returns ``(q1, fused_correction, *rest)``: the caller owns the final
    ``q1.apply(fused_correction)`` (and its destination buffer), and must
    run it before it reuses the input block.
    """

    def __init__(
        self, comm, a_local: np.ndarray, workspace: Workspace, qr_variant: str
    ) -> None:
        a_local = _validate_local(a_local)
        rank, size = comm.rank, comm.size
        self._comm = comm
        self._workspace = workspace
        self._n = a_local.shape[1]
        self._fan_in = tree_fan_in(qr_variant, size)
        self._outbox: list = []
        merges, self._parent = reduction_schedule(rank, size, self._fan_in)
        self._up = {
            level: {child: comm.irecv(child, _TAG_UP + level) for child in children}
            for level, children in merges
        }
        self._reply = None
        if self._parent is not None:
            parent, level = self._parent
            self._reply = comm.irecv(parent, _TAG_DOWN + level)
        with _obs.span("tsqr.local_qr", phase="qr", rank=rank):
            self._q1, self._r1 = qr_positive(
                a_local, overwrite_a=True, form_q=False
            )
        if not merges and self._parent is not None:
            # A leaf's R is final now: let it travel while the parent
            # factors its own block.
            self._outbox.append(
                comm.isend(self._r1, parent, _TAG_UP + level)
            )

    def finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        """Complete the step; ``reduce_fn(R) -> (combine, *rest)`` runs on
        the root only."""
        with _obs.span(
            "tsqr.finish", phase="tsqr_comm", rank=self._comm.rank
        ):
            fused, rest = self._finish(reduce_fn)
            # Drain the outbox: the peers' matching receives are preposted,
            # so these waits are instant once the step's exchange happened.
            for request in self._outbox:
                request.wait()
            self._outbox = []
        return (self._q1, fused) + rest

    def _finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        comm = self._comm
        rank = comm.rank
        # Up: stack this rank's R over its children's, level by level, in
        # a pooled F-ordered buffer that LAPACK refactors in place.
        r, merged = self._r1, []
        for level, requests in self._up.items():
            with _obs.span("tsqr.up_wait", phase="wait", rank=rank):
                blocks = [r] + [np.asarray(req.wait()) for req in requests.values()]
            offsets = np.cumsum([0] + [blk.shape[0] for blk in blocks])
            stacked = self._workspace.get(
                f"tsqr_rstack_{level}",
                (offsets[-1], self._n),
                np.result_type(*blocks),
                order="F",
            )
            for blk, lo, hi in zip(blocks, offsets, offsets[1:]):
                stacked[lo:hi] = blk
            q_merge, r = qr_positive(stacked, overwrite_a=True)
            merged.append((level, list(requests), q_merge, offsets))

        if self._parent is None:
            combine, *rest = reduce_fn(r)
            rest = tuple(rest)
            # The children get frozen copies; the caller keeps the
            # arrays as reduce_fn returned them.
            shared = tuple(
                _frozen_copy(np.array(item))
                if merged and isinstance(item, np.ndarray)
                else item
                for item in rest
            )
            correction, forwarded = None, None
        else:
            parent, level = self._parent
            if merged:
                # Blocking send: the parent preposted this receive, and a
                # completed send needs no buffer-lifetime management on
                # any backend.
                comm.send(r, dest=parent, tag=_TAG_UP + level)
            with _obs.span("tsqr.down_wait", phase="wait", rank=rank):
                payload = self._reply.wait()
            if not merged:
                # A leaf's block arrives with the combine factor folded in.
                return payload[0], tuple(payload[1:])
            correction, combine = payload[0], payload[1]
            forwarded = tuple(payload[1:])
            rest = shared = tuple(payload[2:])

        # Down: each child gets its rows of this level's correction.  The
        # combine factor is folded in small-matrices-first — for a leaf
        # here, for a forwarding child below its own merges — so every
        # rank runs one tall reflector apply, owned by the caller.
        for level, children, q_merge, offsets in reversed(merged):
            combined = q_merge if correction is None else q_merge @ correction
            for child, lo, hi in zip(children, offsets[1:], offsets[2:]):
                if reduction_schedule(child, comm.size, self._fan_in)[0]:
                    if forwarded is None:
                        forwarded = (_frozen_copy(combine),) + shared
                    reply = (_frozen_copy(combined[lo:hi]),) + forwarded
                else:
                    reply = (_frozen_copy(combined[lo:hi] @ combine),) + shared
                self._outbox.append(comm.isend(reply, child, _TAG_DOWN + level))
            correction = combined[: offsets[1]]
        # With nothing merged (a lone root) R was final after the local
        # QR and the correction is the identity.
        return (combine if correction is None else correction @ combine), rest

    def abort(self) -> None:
        """Abandon the in-flight step: cancel pending receives, drop the
        outbox.  Called on the recovery path (a peer died mid-step) —
        afterwards the step must not be finished."""
        requests = [req for level in self._up.values() for req in level.values()]
        if self._reply is not None:
            requests.append(self._reply)
        for request in requests + self._outbox:
            _abort_request(request)
        self._up, self._reply, self._outbox = {}, None, []
