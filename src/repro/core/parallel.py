"""``ParSVDParallel`` — streaming + distributed + randomized SVD
(paper Listings 2-4).

Each SPMD rank constructs one instance around its communicator and feeds it
the *local* row block of every snapshot batch (the domain-decomposition
layout of APMOS).  The streaming update structure is identical to the serial
class; the two dense kernels are swapped for their distributed counterparts:

* initialization uses the one-shot APMOS SVD (Algorithm 2, Listing 3);
* the streaming step uses the distributed tall-skinny QR (Listing 4)
  followed by a small SVD of the replicated ``R`` factor at rank 0.

Randomization (``low_rank=True``) replaces both rank-0 dense SVDs with the
randomized low-rank SVD; the sketch is drawn only at rank 0 and its results
broadcast, so all ranks observe a single consistent factorization.

Fidelity notes
--------------
* Listing 3 truncates the local right vectors to ``K`` columns
  (``generate_right_vectors(A, self._K)``); Algorithm 2 allows a separate
  ``r1`` (paper default 50).  We expose ``r1`` through the config and use
  ``max(K, r1)`` columns — strictly at least as accurate as the listing;
  setting ``r1=K`` reproduces the listing exactly.
* Listing 4's ``qglobal = -qglobal  # Trick for consistency`` is replaced by
  deterministic sign canonicalisation (see :mod:`repro.utils.linalg`).
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..config import RunConfig, SolverConfig
from ..obs import runtime as _obs
from ..exceptions import (
    CommunicatorError,
    ConfigurationError,
    DataFormatError,
    ShapeError,
)
from ..utils.linalg import economy_svd, truncate_svd
from ..utils.rng import resolve_rng
from ..utils.partition import block_partition
from .apmos import apmos_svd
from .base import ParSVDBase
from .checkpoint import (
    Snapshot,
    normalize_checkpoint_path,
    rank_checkpoint_path,
    read_checkpoint,
    write_checkpoint,
)
from .randomized import low_rank_svd
from .tsqr import TsqrStep, finish_now
from .workspace import Workspace

__all__ = ["ParSVDParallel"]


class ParSVDParallel(ParSVDBase):
    """Distributed streaming truncated SVD over a row-block decomposition.

    Parameters
    ----------
    comm:
        Communicator for this rank (:mod:`repro.smpi` or compatible).
    solver:
        A :class:`~repro.config.SolverConfig` carrying every algorithm
        parameter (``K``, ``ff``, ``low_rank``, ... as in
        :class:`~repro.core.base.ParSVDBase`) and run option; ``None``
        means ``SolverConfig()``.  :class:`~repro.api.Session` builds
        drivers this way.

    Run options (fields of ``solver``)
    ----------------------------------
    qr_variant:
        The fan-in of the TSQR reduction tree: ``"gather"`` (the paper's
        Listing 4 pattern, default) is the flat tree, rank 0 absorbing
        every rank at once; ``"tree"`` the binary reduction.  Same
        numbers, different communication.
    gather:
        What :attr:`modes` holds once assembled —
        ``"bcast"`` (default): global modes on *every* rank;
        ``"root"``: global modes on rank 0 only (others raise; use
        :attr:`local_modes`);
        ``"none"``: no gathering; :attr:`modes` is the local block, the
        same read-only view as :attr:`local_modes`.
    apmos_group_size:
        The group size of the APMOS gather that initializes the run
        (:func:`~repro.core.apmos.apmos_svd`): ``None`` (default) is the
        paper's single gather at rank 0; ``1 < g < p`` first reduces
        ``W`` at one leader per group of ``g`` ranks.  Any other size
        runs the single gather.

    Notes
    -----
    The streaming step is allocation-free in steady state: a persistent
    per-instance :class:`~repro.core.workspace.Workspace` backs the fused
    scale-and-concat input (factored in place), the TSQR ``R`` stacks and
    the updated local modes, so ``incorporate_data`` writes its large
    intermediates into reused buffers.  The local modes are double
    buffered, which makes :attr:`local_modes` (and :attr:`modes` under
    ``gather="none"``) a **read-only view** of workspace memory: writing
    into it raises ``ValueError``, and the view stays valid until the
    second-next update, which reuses its buffer.  Copy it if it must
    outlive that.

    Mode assembly is **lazy**: ``initialize``/``incorporate_data`` only
    invalidate the cached gathered modes, and the gather (+ broadcast)
    collective runs on the first :attr:`modes` access after an update.  A
    pure streaming loop that never reads :attr:`modes` therefore performs
    *zero* mode-assembly communication — the per-batch cost the paper's
    Listing 2 avoids.  Because assembly is collective (for ``"bcast"`` and
    ``"root"``), every rank must read :attr:`modes` (or call
    :meth:`assemble_modes`) the same number of times relative to updates;
    an internal epoch counter makes repeated reads free and keeps ranks
    aligned.  :attr:`local_modes` never communicates.

    Results that arrive over a broadcast (:attr:`modes` under
    ``gather="bcast"`` on non-root ranks, :attr:`singular_values` and
    :meth:`parallel_qr`'s ``u_new``/``s_new`` away from rank 0) are
    **read-only** views of the zero-copy snapshot the communicator shares
    between receivers; in-place mutation raises ``ValueError`` there
    (while rank 0 holds its own writable original).
    Treat collective results as immutable — copy first if you must write.

    Examples
    --------
    Run with 4 ranks via the SPMD executor::

        from repro.config import SolverConfig
        from repro.smpi import run_spmd
        from repro.utils import block_partition

        def job(comm):
            part = block_partition(n_dof, comm.size)
            block = data[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=10, ff=0.95))
            svd.initialize(block[:, :100])
            svd.incorporate_data(block[:, 100:200])
            return svd.singular_values

        values = run_spmd(4, job)

    (Or, one level up: :class:`repro.api.Session` builds the driver,
    partitions the rows and owns the communicator — the construction
    path all shipped entry points use.)
    """

    def __init__(self, comm, *, solver: Optional[SolverConfig] = None) -> None:
        if solver is None:
            solver = SolverConfig()
        elif not isinstance(solver, SolverConfig):
            raise ConfigurationError(
                f"solver must be a SolverConfig, got {type(solver).__name__}"
            )
        super().__init__(config=solver)
        self.comm = comm
        self._qr_variant = solver.qr_variant
        self._gather = solver.gather
        self._apmos_group_size = solver.apmos_group_size
        self._workspace = Workspace()
        # Set when a streaming step fails to complete: it poisons the
        # instance, because the peers may have applied the step.
        self._step_error: Optional[BaseException] = None
        self._ulocal: Optional[np.ndarray] = None
        # Lazy mode assembly: _modes_epoch counts factorization updates,
        # _modes_synced_epoch the update the cached gathered modes belong
        # to.  The collective in assemble_modes() runs only when they
        # differ, so every rank performs it the same number of times.
        self._modes_epoch: int = 0
        self._modes_synced_epoch: int = 0
        # Only rank 0 consumes randomness (sketches are drawn at the root
        # and broadcast); all ranks derive the same stream for determinism
        # regardless of which rank ends up drawing.
        self._rng = resolve_rng(self._config.seed)

    @property
    def solver(self) -> SolverConfig:
        """The full :class:`~repro.config.SolverConfig` this driver runs
        with (algorithm parameters *and* run options)."""
        assert isinstance(self._config, SolverConfig)
        return self._config

    # -- distributed kernels (paper Listings 3 and 4) ------------------------
    def parallel_svd(
        self, a_local: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One-shot distributed SVD of a row-distributed matrix (Listing 3):
        APMOS over ``apmos_group_size`` groups (see the class docstring).

        Returns ``(u_local, s)``: this rank's block of the ``K`` global left
        singular vectors, and the global singular values.
        """
        cfg = self._config
        return apmos_svd(
            self.comm,
            a_local,
            r1=max(cfg.K, cfg.r1),
            r2=cfg.K,
            group_size=self._apmos_group_size,
            low_rank=cfg.low_rank,
            oversampling=cfg.oversampling,
            power_iters=cfg.power_iters,
            rng=self._rng,
        )

    def parallel_qr(
        self, a_local: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distributed QR + small SVD of the global R factor (Listing 4).

        Returns ``(q_local, u_new, s_new)`` where ``q_local`` is a fresh
        array holding this rank's explicit block of the global orthonormal
        factor (the step's reflectors applied to its identity-combined
        correction; the streaming update never forms it) and ``(u_new,
        s_new)`` is the (possibly randomized) SVD of the replicated global
        ``R`` — "step b of Levy-Lindenbaum - small operation" in the
        listing.

        ``a_local`` is left unchanged: the step factors a private copy.
        """
        self._raise_if_poisoned()

        # SVD the small factor once, at rank 0, and ship it in the fused
        # reply — with randomization enabled this keeps every rank on the
        # same sketch realisation.  The identity combine leaves q_local
        # the plain TSQR factor.
        def reduce_fn(r_final):
            identity = np.eye(r_final.shape[0], dtype=r_final.dtype)
            return (identity, *self._reduce_r(r_final))

        step = self._post_step(np.array(a_local, order="F"))
        return finish_now(step, reduce_fn)

    def _post_step(self, a_local: np.ndarray):
        """Post one TSQR step of the configured variant over ``a_local``."""
        return TsqrStep(self.comm, a_local, self._workspace, self._qr_variant)

    def _reduce_r(self, r_final: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rank-0 reduction of the replicated TSQR ``R``: the streaming
        update's small (possibly randomized) SVD.  May consume
        ``r_final``."""
        cfg = self._config
        if cfg.low_rank:
            return low_rank_svd(
                r_final,
                cfg.K,
                oversampling=cfg.oversampling,
                power_iters=cfg.power_iters,
                rng=self._rng,
            )
        # r_final is dead after this factorization (only its SVD travels
        # on): let LAPACK consume it.
        u_new, s_new, _ = economy_svd(r_final, overwrite_a=True)
        return u_new, s_new

    # -- streaming driver (paper Listing 2) -----------------------------------
    def initialize(self, A: np.ndarray) -> "ParSVDParallel":
        """Factor the first (local block of the) batch via APMOS."""
        self._raise_if_poisoned()
        A = self._validate_first_batch(A)
        with _obs.span("parsvd.initialize", phase="svd", rank=self.comm.rank):
            self._ulocal, self._singular_values = self.parallel_svd(A)
        self._iteration = 1
        self._n_seen = A.shape[1]
        self._invalidate_modes()
        return self

    def incorporate_data(self, A: np.ndarray) -> "ParSVDParallel":
        """Ingest one more (local block of a) batch via distributed QR.

        The scaled-modes ‖ batch concatenation is built in a persistent
        workspace buffer and factored there in place with the compact-WY
        ``?geqrt``; the local ``Q`` is never formed.  Its reflectors stay
        in that buffer until the step finishes, when they are applied
        once, with one tall GEMM, to the small fused correction, writing
        the new Fortran-ordered local modes straight into a double
        buffer.  A steady-state streaming loop therefore allocates no
        ``(M_i, K + batch)`` arrays at all.

        The step is posted and finished in this call.  Its finish is
        where each rank merges the ``R`` factors it absorbs, rank 0 runs
        the truncated small SVD, and the fused replies travel back down
        the reduction tree.  A step that fails to finish (e.g. a dead
        peer surfacing as a deadlock) is aborted and *poisons* the
        instance: its peers may have applied it, so every later access
        raises instead of quietly serving the pre-step factorization.
        """
        self._raise_if_poisoned()
        A = self._validate_next_batch(A)
        assert self._ulocal is not None
        assert self._singular_values is not None

        with _obs.span("parsvd.ingest", phase="ingest", rank=self.comm.rank):
            ll = self._scale_concat(A)
        st = _obs.state()
        t0 = time.perf_counter() if st is not None else 0.0
        step = self._post_step(ll)
        t1 = time.perf_counter() if st is not None else 0.0
        try:
            q1, fused, s_new = step.finish(self._reduce_truncated)
        except BaseException as exc:
            self._step_error = exc
            # The step is dead: release the requests it still holds (a
            # traceback kept by a log record would pin them).
            step.abort()
            raise
        if st is not None and st.registry is not None:
            now = time.perf_counter()
            st.registry.histogram("repro.core.step_seconds").observe(now - t0)
            st.registry.histogram("repro.core.finish_seconds").observe(now - t1)
        self._apply_update(q1, fused, s_new)
        self._iteration += 1
        self._n_seen += A.shape[1]
        self._invalidate_modes()
        return self

    def _scale_concat(self, A: np.ndarray) -> np.ndarray:
        """Build ``[ff * U diag(D) | A]`` fused into the reused workspace
        buffer: ``ll[:, :k] = ulocal * (ff * s); ll[:, k:] = A``, F-ordered
        so the TSQR's local QR can factor it in place."""
        scale = self._config.ff * self._singular_values
        m_i, k = self._ulocal.shape
        dtype = np.result_type(self._ulocal.dtype, A.dtype)
        ll = self._workspace.get("ll", (m_i, k + A.shape[1]), dtype, order="F")
        np.multiply(self._ulocal, scale[np.newaxis, :], out=ll[:, :k])
        ll[:, k:] = A
        return ll

    def _reduce_truncated(
        self, r_final: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``reduce_fn`` of the TSQR step: the truncated small SVD.

        The leading result is the *combine* factor the step folds into
        each correction block small-matrices-first, so every rank's whole
        update costs one apply of its ``(M_i, K+B)`` reflectors to a
        ``(K+B, K)`` matrix: one tall ``(M_i, K+B) x (K+B, K)`` GEMM.
        """
        with _obs.span("parsvd.reduce", phase="svd", rank=self.comm.rank):
            u_new, s_new = self._reduce_r(r_final)
            u_new, s_new, _ = truncate_svd(u_new, s_new, None, self._config.K)
        return u_new, s_new

    def _apply_update(self, q1, fused: np.ndarray, s_new) -> None:
        """Lift the fused correction through the local Q factor — the one
        apply of the step's reflectors ``q1`` (a
        :class:`~repro.utils.linalg.HouseholderQ`), landed in the
        Fortran-ordered, double-buffered modes: take a stable destination
        from the pool (never the buffer q1's reflectors live in), apply
        into it, and recycle the previous generation's block."""
        new_u = self._workspace.take(
            "ulocal", (q1.shape[0], fused.shape[1]), q1.v.dtype, order="F"
        )
        with _obs.span("tsqr.apply_q", phase="qr", rank=self.comm.rank):
            q1.apply(fused, out=new_u)
        self._workspace.give_back("ulocal", self._ulocal)
        self._ulocal = new_u
        self._singular_values = s_new

    def _raise_if_poisoned(self) -> None:
        """Refuse access after a streaming step failed to finish."""
        if self._step_error is not None:
            raise CommunicatorError(
                f"a previous streaming step failed to complete "
                f"({type(self._step_error).__name__}: {self._step_error}); "
                f"its peers may have applied it, so this factorization is "
                f"stale — restart from a checkpoint"
            ) from self._step_error

    # -- results layout ---------------------------------------------------------
    @property
    def local_modes(self) -> np.ndarray:
        """This rank's ``(M_i, K)`` block of the global left singular
        vectors (no mode-assembly communication).

        A read-only view of the double-buffered workspace, valid until the
        second-next update (see the class notes)."""
        self._require_initialized()
        self._raise_if_poisoned()
        return self._local_view()

    def _local_view(self) -> np.ndarray:
        view = self._ulocal.view()
        view.flags.writeable = False
        return view

    @property
    def singular_values(self) -> np.ndarray:
        """Current singular values."""
        self._require_initialized()
        self._raise_if_poisoned()
        assert self._singular_values is not None
        return self._singular_values

    def _invalidate_modes(self) -> None:
        """Drop the cached gathered modes; the next :attr:`modes` access
        (on all ranks) re-assembles them collectively."""
        self._modes = None
        self._modes_epoch += 1

    @property
    def modes_current(self) -> bool:
        """Whether the cached gathered modes reflect the latest update
        (i.e. the next :attr:`modes` access needs no communication)."""
        return self._modes_synced_epoch == self._modes_epoch

    def assemble_modes(self) -> Optional[np.ndarray]:
        """Assemble the distributed modes per the ``gather`` policy.

        Collective (for ``"bcast"``/``"root"``) on first call after an
        update; afterwards a cached no-op until the next
        ``incorporate_data``.  Returns the assembled array, or ``None`` on
        non-root ranks under the ``"root"`` policy.
        """
        self._require_initialized()
        self._raise_if_poisoned()
        if self.modes_current:
            return self._modes
        assert self._ulocal is not None
        if self._gather == "none":
            # The same read-only view as :attr:`local_modes`, with the
            # same lifetime (workspace double buffering).
            self._modes = self._local_view()
        else:
            stacked = self.comm.gatherv_rows(self._ulocal, root=0)
            if stacked is not None and np.shares_memory(stacked, self._ulocal):
                # Single-rank backends return the send buffer aliased;
                # with the workspace recycling _ulocal every other step,
                # an assembled-modes result must not share that storage
                # (gathered modes are a stable snapshot on every backend).
                stacked = np.array(stacked)
            if self._gather == "bcast":
                stacked = self.comm.bcast(stacked, root=0)
            self._modes = stacked
        self._modes_synced_epoch = self._modes_epoch
        return self._modes

    @property
    def modes(self) -> np.ndarray:
        """Global modes per the gather policy (see class docstring).

        Collective when the cache is stale: every rank must read it (or
        call :meth:`assemble_modes`) to complete the gather.
        """
        self._require_initialized()
        self.assemble_modes()
        if self._modes is None:
            raise ShapeError(
                f"rank {self.comm.rank} does not hold the gathered modes "
                f"(gather policy {self._gather!r}); use local_modes"
            )
        return self._modes

    # -- checkpoint / restart ---------------------------------------------
    def snapshot(
        self, path=None, run_config: Optional[RunConfig] = None
    ) -> Optional[Snapshot]:
        """Gather the resumable state at rank 0 (collective: one
        ``gatherv_rows`` plus one ``barrier`` per rank, whatever the
        ``gather`` policy).

        Returns the :class:`~repro.core.checkpoint.Snapshot` on rank 0 and
        ``None`` elsewhere.  With ``path`` rank 0 also writes it there as a
        gathered checkpoint (``run_config`` embedded) before the exit
        barrier, so no rank can observe a missing or partial file.  The
        snapshot owns its arrays — later updates recycle the workspace
        buffers — and :meth:`from_snapshot` restores it at any rank count.
        """
        self._require_initialized()
        self._raise_if_poisoned()
        assert self._ulocal is not None
        stacked = self.comm.gatherv_rows(self._ulocal, root=0)
        snapshot = None
        if stacked is not None:
            if np.shares_memory(stacked, self._ulocal):
                # Single-rank backends return the send buffer itself.
                stacked = np.array(stacked)
            snapshot = Snapshot(
                modes=stacked,
                singular_values=np.array(self._singular_values),
                iteration=self._iteration,
                n_seen=self._n_seen,
            )
            if path is not None:
                self._write(path, "gathered", stacked, run_config)
        self.comm.barrier()
        return snapshot

    @classmethod
    def from_snapshot(
        cls, comm, snapshot: Snapshot, solver: Optional[SolverConfig] = None
    ) -> "ParSVDParallel":
        """Restore a :meth:`snapshot` on this rank of ``comm``: the rank
        takes its canonical :func:`~repro.utils.partition.block_partition`
        row block of the global modes, so any rank count works."""
        part = block_partition(snapshot.modes.shape[0], comm.size)
        return cls._restored(
            comm,
            solver,
            np.array(snapshot.modes[part.slice_of(comm.rank), :]),
            np.array(snapshot.singular_values),
            snapshot.iteration,
            snapshot.n_seen,
        )

    @classmethod
    def _restored(
        cls, comm, solver, local, singular_values, iteration, n_seen
    ) -> "ParSVDParallel":
        svd = cls(comm, solver=solver)
        svd._ulocal = local
        svd._singular_values = singular_values
        svd._iteration = int(iteration)
        svd._n_seen = int(n_seen)
        svd._n_dof = local.shape[0]
        svd._invalidate_modes()
        return svd

    def _write(self, path, kind: str, modes, run_config):
        return write_checkpoint(
            path,
            self._config,
            modes,
            self._singular_values,
            self._iteration,
            self._n_seen,
            kind=kind,
            rank=self.comm.rank,
            nranks=self.comm.size,
            qr_variant=self._qr_variant,
            gather=self._gather,
            apmos_group_size=self._apmos_group_size,
            run_config=run_config,
        )

    def save_checkpoint(
        self,
        path,
        gathered: bool = False,
        run_config: Optional[RunConfig] = None,
    ) -> str:
        """Checkpoint the streaming state; returns the path written.

        With ``gathered=False`` (default) every rank calls this with the
        *same* base path and writes its own shard
        (``<stem>.rank<i>.npz``) holding the local mode block; a restart
        must then use the same rank count.

        With ``gathered=True`` the call is **collective**: rank 0 writes
        the :meth:`snapshot` as one single file (``kind="gathered"``).
        Such a checkpoint restarts at *any* rank count — see
        :meth:`from_checkpoint` — and is what
        :class:`~repro.serving.ModeBaseStore` ingests.

        ``run_config`` embeds the typed :class:`~repro.config.RunConfig`
        into the file so :meth:`repro.api.Session.resume` can restore the
        backend and stream settings too (the session passes its own).
        """
        if gathered:
            out = normalize_checkpoint_path(path)
            self.snapshot(out, run_config)
            return str(out)
        self._require_initialized()
        self._raise_if_poisoned()
        shard = rank_checkpoint_path(path, self.comm.rank)
        return str(self._write(shard, "parallel", self._ulocal, run_config))

    def export_to_store(self, store, name: str) -> int:
        """Publish the current basis into a serving store (collective).

        Publishes the :meth:`snapshot` at rank 0 as a new version of
        ``name`` in ``store`` (a :class:`~repro.serving.ModeBaseStore` or
        a path to one), and broadcasts the assigned version so every rank
        returns it.
        """
        snapshot = self.snapshot()
        version: Optional[int] = None
        if snapshot is not None:
            from ..serving.store import ModeBaseStore

            if not isinstance(store, ModeBaseStore):
                store = ModeBaseStore(store)
            version = store.publish(
                name,
                snapshot.modes,
                snapshot.singular_values,
                config=self._config,
                iteration=snapshot.iteration,
                n_seen=snapshot.n_seen,
            )
        return self.comm.bcast(version, root=0)

    @classmethod
    def from_checkpoint(
        cls,
        comm,
        path,
        solver: Optional[SolverConfig] = None,
    ) -> "ParSVDParallel":
        """Rebuild this rank's instance from its shard of a checkpoint.

        The restart runs with the configuration recorded at save time
        (including ``qr_variant``, ``gather`` and ``apmos_group_size``)
        unless ``solver`` overrides it as a whole (a full
        :class:`~repro.config.SolverConfig`, e.g. the one embedded in the
        checkpoint's :class:`~repro.config.RunConfig` payload, which is
        how :meth:`repro.api.Session.resume` restores its solver).

        Two layouts restart:

        * a **gathered** single file (``save_checkpoint(...,
          gathered=True)``): if ``path`` itself names a ``kind="gathered"``
          checkpoint, each rank takes its canonical
          :func:`~repro.utils.partition.block_partition` row block of the
          stored global modes — any rank count works;
        * otherwise the per-rank **shards**: the restart rank count must
          equal the checkpoint's (the shards partition the global modes);
          a mismatch raises :class:`~repro.exceptions.DataFormatError`.
        """
        gathered_file = normalize_checkpoint_path(path)
        shard = rank_checkpoint_path(path, comm.rank)
        if gathered_file.exists():
            # The base path may legitimately hold something else (e.g. a
            # save_results archive sharing the stem with per-rank shards);
            # only a readable kind="gathered" checkpoint selects the
            # single-file restart, otherwise fall back to the shards.
            try:
                state = read_checkpoint(gathered_file, load_run_config=False)
            except DataFormatError:
                state = None
            if state is not None and state["kind"] == "gathered":
                if solver is None:
                    solver = cls._restored_solver(state)
                snapshot = Snapshot(
                    modes=state["modes"],
                    singular_values=state["singular_values"],
                    iteration=state["iteration"],
                    n_seen=state["n_seen"],
                )
                return cls.from_snapshot(comm, snapshot, solver)
            if not shard.exists():
                if state is None:
                    raise DataFormatError(
                        f"{gathered_file}: not a restartable checkpoint and "
                        f"no per-rank shard {shard} exists"
                    )
                raise DataFormatError(
                    f"{gathered_file}: checkpoint kind "
                    f"{state['kind']!r} is not 'gathered'; per-rank "
                    f"restarts load '<stem>.rank<i>.npz' shards"
                )
        state = read_checkpoint(shard, load_run_config=False)
        if state["kind"] != "parallel":
            raise DataFormatError(
                f"{shard}: checkpoint kind {state['kind']!r} is not "
                f"'parallel'"
            )
        if state["nranks"] != comm.size:
            raise DataFormatError(
                f"{shard}: checkpoint was taken at {state['nranks']} "
                f"ranks, restart has {comm.size}"
            )
        if state["rank"] != comm.rank:
            raise DataFormatError(
                f"{shard}: shard belongs to rank {state['rank']}, "
                f"loaded by rank {comm.rank}"
            )
        if solver is None:
            solver = cls._restored_solver(state)
        return cls._restored(
            comm,
            solver,
            state["modes"],
            state["singular_values"],
            state["iteration"],
            state["n_seen"],
        )

    @staticmethod
    def _restored_solver(state: dict) -> SolverConfig:
        """The checkpoint's recorded algorithm + run options."""
        return SolverConfig.from_svd_config(
            state["config"],
            qr_variant=state["qr_variant"],
            gather=state["gather"],
            apmos_group_size=state["apmos_group_size"],
        )
