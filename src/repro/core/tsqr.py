"""Distributed tall-skinny QR (paper Listing 4 and Benson et al. 2013).

The streaming update of the parallel class needs a QR factorization of a
row-block-distributed tall-skinny matrix ``A`` (rows = grid points spread
over ranks, columns = ``K + batch`` ≪ rows).  There is one implementation,
a *step* split into a post and a finish phase, with two communication
patterns:

:class:`PipelinedGatherStep`
    The paper's scheme (Listing 4): every rank takes a local QR, the small
    ``R`` factors are gathered and stacked at rank 0, a second QR of the
    stack yields the global ``R`` and a correction factor that rank 0 slices
    and sends back to each rank.  Simple, but rank 0 handles ``p * n x n``.

:class:`PipelinedTreeStep`
    The communication-optimal binary-reduction TSQR: pairs of ranks merge
    their ``R`` factors up a tree (``log2 p`` rounds), then the per-level
    correction factors are pushed back down.  Same result (both are
    canonicalised to ``diag(R) >= 0``), lower critical-path volume — the
    A5 ablation bench contrasts the two.

Constructing a step is the *post* phase (receives preposted before the
local QR, local factor taken, small ``R`` shipped); :meth:`finish` merges
or refactors, runs a root-side ``reduce_fn(R)`` — e.g. the small SVD of the
streaming update — and sends a **fused** reply carrying each rank's
correction block together with ``reduce_fn``'s results in a single
message.

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

from typing import Callable, Dict, Tuple

import numpy as np

from ..exceptions import ShapeError
from ..obs import runtime as _obs
from ..utils.linalg import as_floating, qr_positive
from .workspace import Workspace

__all__ = [
    "PipelinedGatherStep",
    "PipelinedTreeStep",
    "finish_now",
    "tsqr_gather",
    "tsqr_tree",
]

#: Tag ranges of the two step variants (distinct, so steps of both
#: variants can be in flight on one communicator).
_TAG_PIPE_UP = 400
_TAG_PIPE_DOWN = 500
_TAG_PTREE_UP = 600
_TAG_PTREE_DOWN = 700


def _validate_local(a_local: np.ndarray) -> np.ndarray:
    a_local = as_floating(a_local, "local block")
    if a_local.ndim != 2:
        raise ShapeError(f"local block must be 2-D, got ndim={a_local.ndim}")
    return a_local


def _stack_and_refactor(blocks, n: int, workspace: Workspace):
    """Rank-0 core of the gather variant: stack the per-rank ``R`` factors
    and take the canonical QR of the stack.

    The stack lands in a reused F-ordered workspace buffer that LAPACK
    refactors in place; it is scratch once the factors are out.  Returns
    ``(q2, r_final, offsets)`` with ``offsets`` delimiting each rank's
    rows of ``q2`` (counts can differ when a rank owns fewer rows than
    columns).
    """
    counts = [blk.shape[0] for blk in blocks]
    total = sum(counts)
    stacked = workspace.get(
        "tsqr_rstack", (total, n), blocks[0].dtype, order="F"
    )
    offsets = np.cumsum([0] + counts)
    for peer, blk in enumerate(blocks):
        stacked[offsets[peer] : offsets[peer + 1]] = blk
    q2, r_final = qr_positive(stacked, overwrite_a=True)
    return q2, r_final, offsets


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


def _blocking_tsqr(step_cls, comm, a_local) -> Tuple[np.ndarray, np.ndarray]:
    """Post ``step_cls`` over a private F-ordered copy of ``a_local`` (the
    step factors its input in place) and finish it at once."""
    step = step_cls(comm, np.array(a_local, order="F"), Workspace())
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
    return _blocking_tsqr(PipelinedGatherStep, comm, a_local)


def tsqr_tree(comm, a_local: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-reduction TSQR (Benson, Gleich & Demmel 2013).

    Communication structure: ``ceil(log2 p)`` rounds.  In round ``d`` the
    rank with the set ``2^d`` bit sends its current ``R`` to its partner
    (``rank - 2^d``), which stacks the two ``R`` factors, refactors, and
    keeps the product chain of correction blocks.  The downsweep then sends
    each child its slice of the correction factor (and ``R``) so every rank
    can update its local ``Q``.  Arguments and results are as in
    :func:`tsqr_gather`.

    Results match :func:`tsqr_gather` to round-off because both are
    canonicalised (``diag(R) >= 0``), which the tests assert.
    """
    return _blocking_tsqr(PipelinedTreeStep, comm, a_local)


def _tree_recv_schedule(rank: int, size: int, comm) -> Dict[int, object]:
    """Prepost one receive per upsweep level at which ``rank`` will merge.

    The binary-reduction schedule is static: at level ``d`` (stride
    ``2^d``) a still-active rank with the ``2^d`` bit clear absorbs
    ``rank + 2^d`` (when that partner exists).  Posting the receives
    before any local compute is the MPI prepost idiom — the partner's
    ``R`` lands while this rank is busy factoring its own block.
    """
    requests: Dict[int, object] = {}
    stride, depth = 1, 0
    while stride < size:
        if rank % stride == 0 and not (rank & stride) and rank + stride < size:
            requests[depth] = comm.irecv(rank + stride, _TAG_PTREE_UP + depth)
        stride <<= 1
        depth += 1
    return requests


def _tree_upsweep(
    comm,
    r_current: np.ndarray,
    up_requests: Dict[int, object],
    workspace: Workspace,
    n: int,
):
    """Run the binary reduction of R factors (receives preposted).

    Returns ``(r_current, q_factors, merge_meta)`` — the reduced factor
    (final global ``R`` on rank 0), the correction chain and its metadata.
    Each level's stacked R pair lands in a pooled F-ordered workspace
    buffer that LAPACK refactors in place.  Odd ranks are absorbed at
    level 0 and shipped their ``R`` at post time, so they take no part
    here.
    """
    rank, size = comm.rank, comm.size
    q_factors = []  # correction chain, innermost (local) first
    merge_meta = []  # (partner, my_rows, partner_rows) per merge
    stride, depth = 1, 0
    active = not rank & 1
    while stride < size:
        if active:
            partner = rank ^ stride
            if partner < size:
                if rank & stride:
                    # Blocking send: the partner preposted this level's
                    # receive, and a completed send needs no buffer-
                    # lifetime management on any backend.
                    comm.send(
                        r_current, dest=partner, tag=_TAG_PTREE_UP + depth
                    )
                    active = False
                else:
                    with _obs.span(
                        "tsqr.tree_wait", phase="wait", rank=rank
                    ):
                        r_partner = np.asarray(up_requests[depth].wait())
                    my_rows = r_current.shape[0]
                    partner_rows = r_partner.shape[0]
                    # F-ordered so the in-place refactorization below
                    # needs no LAPACK-side copy.
                    stacked = workspace.get(
                        f"tree_stack_{depth}",
                        (my_rows + partner_rows, n),
                        np.result_type(r_current.dtype, r_partner.dtype),
                        order="F",
                    )
                    stacked[:my_rows] = r_current
                    stacked[my_rows:] = r_partner
                    q_merge, r_current = qr_positive(stacked, overwrite_a=True)
                    merge_meta.append((partner, my_rows, partner_rows))
                    q_factors.append(q_merge)
        stride <<= 1
        depth += 1
    return r_current, q_factors, merge_meta


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


class _PipelinedStep:
    """One in-flight TSQR + reduce step: what both variants share.

    Construction is the *post* phase.  ``_prepost`` posts this rank's
    receives — ``_up`` for the ``R`` factors it will merge, ``_reply`` for
    its fused reply (``None`` on the root) — **before** the local QR (the
    MPI prepost idiom: partners' traffic lands while this rank factors its
    own block); ``_ship`` then sends whatever ``R`` is already final.
    Sends stay in ``_outbox`` until :meth:`finish` so backends whose send
    requests own the wire buffer (mpi4py pickle mode) cannot have it
    collected mid-flight.

    ``a_local`` is the caller's scratch: a writeable F-ordered block is
    factored in place (any other is copied first), and the local QR keeps
    its ``Q`` as reflectors (``q1``, a
    :class:`~repro.utils.linalg.HouseholderQ`) in it.  The ``R`` stacks
    the step refactors are pooled in ``workspace``.  :meth:`finish`
    returns ``(q1, fused_correction, *rest)``: the caller owns the final
    ``q1.apply(fused_correction)`` (and its destination buffer), and must
    run it before it reuses the input block.
    """

    def __init__(self, comm, a_local: np.ndarray, workspace: Workspace) -> None:
        a_local = _validate_local(a_local)
        self._comm = comm
        self._workspace = workspace
        self._n = a_local.shape[1]
        self._outbox: list = []
        self._up, self._reply = self._prepost(comm.rank, comm.size)
        with _obs.span("tsqr.local_qr", phase="qr", rank=comm.rank):
            self._q1, self._r1 = qr_positive(
                a_local, overwrite_a=True, form_q=False
            )
        self._ship(comm.rank)

    def finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        """Complete the step; ``reduce_fn`` runs on rank 0 only."""
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

    def abort(self) -> None:
        """Abandon the in-flight step: cancel pending receives, drop the
        outbox.  Called on the recovery path (a peer died mid-step) —
        afterwards the step must not be finished."""
        requests = list(self._up.values())
        if self._reply is not None:
            requests.append(self._reply)
        for request in requests + self._outbox:
            _abort_request(request)
        self._up, self._reply, self._outbox = {}, None, []


class PipelinedGatherStep(_PipelinedStep):
    """One in-flight gather-variant TSQR + reduce step.

    Post phase: the root preposts one receive per peer, non-roots the
    receive for the fused reply; after the local QR non-roots ship their
    small ``R``.

    :meth:`finish` completes the step: the root stacks the gathered ``R``
    factors (pooled buffer), refactors, runs ``reduce_fn(R_global) ->
    (combine, *rest)`` — e.g. the streaming update's truncated small SVD
    — and sends each peer its correction block **pre-multiplied by**
    ``combine`` together with ``rest`` in one fused message.  Three
    envelopes per peer pair per step collapse into one, no separate
    ``R``/result broadcast is needed, and the
    correction-combine product is taken *small-matrices-first*: each rank
    later needs only one tall reflector apply ``q1 @ (correction @
    combine)`` instead of ``(q1 @ correction) @ combine`` — a large cut of
    the per-step FLOPs when ``combine`` is a truncation.
    """

    def _prepost(self, rank: int, size: int):
        comm = self._comm
        if rank == 0:
            up = {peer: comm.irecv(peer, _TAG_PIPE_UP) for peer in range(1, size)}
            return up, None
        return {}, comm.irecv(0, _TAG_PIPE_DOWN)

    def _ship(self, rank: int) -> None:
        if rank != 0:
            self._outbox.append(self._comm.isend(self._r1, 0, _TAG_PIPE_UP))

    def _finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        comm = self._comm
        if comm.rank != 0:
            with _obs.span(
                "tsqr.reply_wait", phase="wait", rank=comm.rank
            ):
                payload = self._reply.wait()
            return payload[0], tuple(payload[1:])
        blocks = [self._r1]
        if self._up:
            with _obs.span("tsqr.gather_wait", phase="wait", rank=0):
                blocks.extend(
                    np.asarray(req.wait()) for req in self._up.values()
                )
        q2, r_final, offsets = _stack_and_refactor(
            blocks, self._n, self._workspace
        )
        reduced = tuple(reduce_fn(r_final))
        combine, rest = reduced[0], tuple(reduced[1:])
        rest_shared = tuple(
            _frozen_copy(item) if isinstance(item, np.ndarray) else item
            for item in rest
        )
        for peer in range(1, comm.size):
            # Small-first fuse at the root: the shipped block is the
            # peer's whole remaining update except its one tall apply.
            piece = _frozen_copy(
                q2[offsets[peer] : offsets[peer + 1]] @ combine
            )
            self._outbox.append(
                comm.isend((piece,) + rest_shared, peer, _TAG_PIPE_DOWN)
            )
        return q2[offsets[0] : offsets[1]] @ combine, rest


class PipelinedTreeStep(_PipelinedStep):
    """One in-flight tree-variant TSQR + reduce step.

    Post phase: the full static receive schedule (per-level upsweep
    partners plus the downsweep correction) is preposted before the local
    QR; leaf ranks absorbed at level 0 ship their ``R`` immediately so it
    travels while their partner is still factoring.  :meth:`finish` runs
    the binary reduction, ``reduce_fn(R_global) -> (combine, *rest)`` at
    the root, and a **fused downsweep**: each correction slice travels
    together with ``reduce_fn``'s results, each merging rank forwarding
    them to the partners it absorbed — no separate ``R``/result
    broadcasts at all.  The downsweep keeps full-width corrections (the
    children's chains need them); the ``combine`` fold happens
    small-matrices-first at the leaves, so — like the gather step — each
    rank performs exactly one tall reflector apply, owned by the caller.
    """

    def _prepost(self, rank: int, size: int):
        up = _tree_recv_schedule(rank, size, self._comm)
        if rank == 0:
            return up, None
        # The downsweep correction comes from the partner that absorbs
        # this rank's R.
        return up, self._comm.irecv(
            rank & ~stride_of_absorption(rank),
            _TAG_PTREE_DOWN + level_of_absorption(rank),
        )

    def _ship(self, rank: int) -> None:
        # Leaf fast path: a rank absorbed at level 0 performs no merges,
        # so its R is final now — ship it and let it travel while the
        # partner factors its own block.
        if rank & 1:
            self._outbox.append(
                self._comm.isend(self._r1, rank - 1, _TAG_PTREE_UP + 0)
            )

    def _finish(self, reduce_fn: Callable[[np.ndarray], tuple]) -> tuple:
        comm = self._comm
        rank = comm.rank
        r_current, q_factors, merge_meta = _tree_upsweep(
            comm, self._r1, self._up, self._workspace, self._n
        )
        if rank == 0:
            # The identity seed depends only on R's shape/dtype; build it
            # before reduce_fn, which may consume R in place.
            correction = np.eye(r_current.shape[0], dtype=r_current.dtype)
            reduced = tuple(reduce_fn(r_current))
            combine, rest = reduced[0], tuple(reduced[1:])
            extras = (
                _frozen_copy(combine),
            ) + tuple(
                _frozen_copy(item) if isinstance(item, np.ndarray) else item
                for item in rest
            )
        else:
            with _obs.span("tsqr.down_wait", phase="wait", rank=rank):
                payload = self._reply.wait()
            correction = payload[0]
            extras = tuple(payload[1:])
            combine, rest = extras[0], tuple(extras[1:])
        for q_merge, (partner, my_rows, partner_rows) in zip(
            reversed(q_factors), reversed(merge_meta)
        ):
            combined = q_merge @ correction
            piece = _frozen_copy(combined[my_rows : my_rows + partner_rows])
            self._outbox.append(
                comm.isend(
                    (piece,) + extras,
                    partner,
                    _TAG_PTREE_DOWN + level_of_absorption(partner),
                )
            )
            correction = combined[:my_rows]
        # Small-first fuse at the leaf: fold the combine factor into the
        # (n x n) correction before the single tall apply the caller runs.
        return correction @ combine, rest


def level_of_absorption(rank: int) -> int:
    """Tree level at which ``rank`` sent its R upward (index of its lowest
    set bit); rank 0 never sends."""
    if rank == 0:
        raise ValueError("rank 0 is the reduction root and is never absorbed")
    return (rank & -rank).bit_length() - 1


def stride_of_absorption(rank: int) -> int:
    """Stride (``2^level``) at which ``rank`` was absorbed."""
    if rank == 0:
        raise ValueError("rank 0 is the reduction root and is never absorbed")
    return rank & -rank
