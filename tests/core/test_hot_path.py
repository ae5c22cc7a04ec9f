"""The allocation-free streaming step: agreement, buffer contract and
allocation regression.

* the streaming step agrees with the serial reference (every lane is
  also pinned to frozen outputs in ``test_step_references.py``), and a
  step that fails to finish poisons the instance;
* the local modes are a read-only view of the double-buffered workspace,
  and ``parallel_qr`` hands out fresh arrays, its small SVD writable only
  at rank 0;
* per-step allocated bytes are *flat* after warmup over 50 streaming
  steps (tracemalloc) — the workspace cannot leak or grow with the
  number of snapshots seen.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig
from repro.api import BackendConfig, Session
from repro.core.metrics import compare_modes
from repro.smpi import create_communicator, run_spmd
from repro.utils.partition import block_partition

M = 180
K = 5
BATCH = 12
NRANKS = 3


@pytest.fixture
def stream_matrix(rng):
    """Rank-4 tall matrix (so K=5 truncation is exact in both dtypes)."""
    left = rng.standard_normal((M, 4))
    right = rng.standard_normal((4, 8 * BATCH))
    return left @ right


def run_stream(data, nranks, *, qr_variant, dtype):
    data = data.astype(dtype)

    def job(comm):
        part = block_partition(M, comm.size)
        block = data[part.slice_of(comm.rank), :]
        svd = ParSVDParallel(
            comm, solver=SolverConfig(K=K, ff=0.97, qr_variant=qr_variant)
        )
        svd.initialize(block[:, :BATCH])
        for start in range(BATCH, data.shape[1], BATCH):
            svd.incorporate_data(block[:, start : start + BATCH])
        return np.array(svd.modes), np.array(svd.singular_values)

    return run_spmd(nranks, job)[0]


def serial_reference(stream_matrix):
    serial = ParSVDSerial(K=K, ff=0.97)
    serial.initialize(stream_matrix[:, :BATCH])
    for start in range(BATCH, stream_matrix.shape[1], BATCH):
        serial.incorporate_data(stream_matrix[:, start : start + BATCH])
    return serial


class TestSerialReference:
    @pytest.mark.parametrize("qr_variant", ["gather", "tree"])
    def test_matches_serial_reference(self, stream_matrix, qr_variant):
        serial = serial_reference(stream_matrix)
        modes, values = run_stream(
            stream_matrix, NRANKS, qr_variant=qr_variant, dtype=np.float64
        )
        comparison = compare_modes(
            serial.modes, serial.singular_values, modes, values, n_modes=3
        )
        assert comparison.worst_spectrum_error < 1e-8
        assert comparison.worst_mode_error < 1e-6

    def test_single_rank_self_backend(self, stream_matrix):
        """The streaming step also runs on the zero-overhead self backend."""
        comm = create_communicator("self")
        svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=0.97))
        svd.initialize(stream_matrix[:, :BATCH])
        for start in range(BATCH, stream_matrix.shape[1], BATCH):
            svd.incorporate_data(stream_matrix[:, start : start + BATCH])

        serial = serial_reference(stream_matrix)
        comparison = compare_modes(
            serial.modes,
            serial.singular_values,
            svd.modes,
            svd.singular_values,
            n_modes=3,
        )
        assert comparison.worst_spectrum_error < 1e-8
        assert comparison.worst_mode_error < 1e-6


class TestStreamingStep:
    """The blocking ``parallel_qr`` agrees with the streaming update, and
    a step that fails to finish poisons the instance."""

    def test_parallel_qr_pins_pipelined_update(self, stream_matrix):
        """The public blocking parallel_qr stays consistent with the
        pipelined update path: applying its (q_local, u, s) by hand
        reproduces incorporate_data's state to round-off."""
        from repro.utils.linalg import truncate_svd

        def job(comm):
            part = block_partition(M, comm.size)
            block = stream_matrix[part.slice_of(comm.rank), :]
            ref = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=0.97))
            ref.initialize(block[:, :BATCH])
            ref.incorporate_data(block[:, BATCH : 2 * BATCH])

            manual = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=0.97))
            manual.initialize(block[:, :BATCH])
            scale = 0.97 * manual.singular_values
            ll = np.concatenate(
                (
                    manual.local_modes * scale[np.newaxis, :],
                    block[:, BATCH : 2 * BATCH],
                ),
                axis=1,
            )
            q_local, u_new, s_new = manual.parallel_qr(ll)
            u_t, s_t, _ = truncate_svd(u_new, s_new, None, K)
            return (
                np.array(ref.local_modes),
                q_local @ u_t,
                np.array(ref.singular_values),
                np.array(s_t),
            )

        for ref_modes, manual_modes, ref_values, manual_values in run_spmd(
            NRANKS, job
        ):
            # parallel_qr combines (q1 @ q2) @ u_t; the pipelined path
            # fuses q1 @ (q2 @ u_t) — identical to round-off, not bits.
            assert np.max(np.abs(ref_modes - manual_modes)) <= 1e-10
            assert np.max(np.abs(ref_values - manual_values)) <= 1e-12

    def test_failed_step_completion_poisons_instance(self, stream_matrix):
        """If a step fails to finish, it is aborted and later accesses keep
        raising (the peers may have applied the step — serving the
        stale factorization silently would be a wrong result)."""
        from repro.exceptions import CommunicatorError

        comm = create_communicator("self")
        svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=0.97))
        svd.initialize(stream_matrix[:, :BATCH])
        aborted = []

        class ExplodingStep:
            def finish(self, reduce_fn):
                raise RuntimeError("peer died mid-step")

            def abort(self):
                aborted.append(True)

        svd._post_step = lambda a_local: ExplodingStep()
        with pytest.raises(RuntimeError, match="peer died"):
            svd.incorporate_data(stream_matrix[:, BATCH : 2 * BATCH])
        assert aborted == [True]
        # Poisoned: the failure persists instead of serving stale state.
        with pytest.raises(CommunicatorError, match="stale"):
            _ = svd.singular_values
        with pytest.raises(CommunicatorError, match="stale"):
            svd.incorporate_data(stream_matrix[:, BATCH : 2 * BATCH])


class TestLocalModesBufferContract:
    def test_assembled_modes_stable_on_self_backend(self, stream_matrix):
        """.modes (gather='bcast') must be a stable snapshot on EVERY
        backend — on single-rank communicators gatherv returns the send
        buffer aliased, which must not expose the recycled workspace."""
        comm = create_communicator("self")
        svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=0.97))
        svd.initialize(stream_matrix[:, :BATCH])
        svd.incorporate_data(stream_matrix[:, BATCH : 2 * BATCH])
        held = svd.modes
        snapshot = np.array(held)
        svd.incorporate_data(stream_matrix[:, 2 * BATCH : 3 * BATCH])
        svd.incorporate_data(stream_matrix[:, 3 * BATCH : 4 * BATCH])
        assert np.array_equal(held, snapshot)

    def test_local_modes_snapshot_survives_two_updates(self, stream_matrix):
        """Copies of local_modes are stable; the live view aliases
        workspace memory (double-buffered, overwritten at t + 2)."""
        comm = create_communicator("self")
        svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=0.97))
        svd.initialize(stream_matrix[:, :BATCH])
        svd.incorporate_data(stream_matrix[:, BATCH : 2 * BATCH])
        held = svd.local_modes
        snapshot = np.array(held)
        svd.incorporate_data(stream_matrix[:, 2 * BATCH : 3 * BATCH])
        # One update later the handed-out generation is still intact.
        assert np.array_equal(held, snapshot)

    @pytest.mark.parametrize("updates", [0, 1, 2])
    def test_local_block_views_are_read_only(self, stream_matrix, updates):
        """A write into local_modes, into modes under gather="none" or
        into the session result's modes would change the next step's
        input; each raises instead, before and after updates."""
        solver = SolverConfig(K=K, ff=0.97, gather="none")
        with Session(solver=solver, backend=BackendConfig(name="self")) as session:
            session.initialize(stream_matrix[:, :BATCH])
            for step in range(1, updates + 1):
                batch = stream_matrix[:, step * BATCH : (step + 1) * BATCH]
                session.incorporate_data(batch)
            before = np.array(session.local_modes)
            views = (
                session.local_modes,
                session.modes,
                session.result().modes,
            )
            for view in views:
                with pytest.raises(ValueError, match="read-only"):
                    view[0, 0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    view *= 2.0
            assert np.array_equal(session.local_modes, before)

    @pytest.mark.parametrize("qr_variant", ["gather", "tree"])
    def test_views_read_only_on_every_rank(self, stream_matrix, qr_variant):
        """On every rank, local_modes and modes under gather="none" are one
        read-only view of that rank's own double buffer; a refused write
        changes nothing."""

        def refuses_write(view):
            try:
                view[0, 0] = 1.0
            except ValueError:
                return True
            return False

        def job(comm):
            part = block_partition(M, comm.size)
            block = stream_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm,
                solver=SolverConfig(
                    K=K,
                    ff=0.97,
                    qr_variant=qr_variant,
                    gather="none",
                ),
            )
            svd.initialize(block[:, :BATCH])
            svd.incorporate_data(block[:, BATCH : 2 * BATCH])
            local, modes = svd.local_modes, svd.modes
            before = local.copy()
            return (
                refuses_write(local),
                refuses_write(modes),
                np.shares_memory(local, modes),
                np.array_equal(svd.local_modes, before),
            )

        for local_refused, modes_refused, one_buffer, unchanged in run_spmd(
            NRANKS, job
        ):
            assert local_refused
            assert modes_refused
            assert one_buffer
            assert unchanged

    @pytest.mark.parametrize("qr_variant", ["gather", "tree"])
    def test_parallel_qr_results_are_fresh(self, stream_matrix, qr_variant):
        """Two parallel_qr calls return q_local arrays that share no
        memory (nor with the driver's modes), and the caller's block is
        left unchanged."""

        def job(comm):
            part = block_partition(M, comm.size)
            block = stream_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm, solver=SolverConfig(K=K, ff=0.97, qr_variant=qr_variant)
            )
            svd.initialize(block[:, :BATCH])
            probe = np.array(block[:, BATCH : 2 * BATCH], order="F")
            before = probe.copy()
            first, _, _ = svd.parallel_qr(probe)
            held = first.copy()
            second, _, _ = svd.parallel_qr(probe)
            return (
                np.shares_memory(first, second),
                np.shares_memory(first, svd.local_modes),
                np.array_equal(first, held),
                np.array_equal(first, second),
                np.array_equal(probe, before),
            )

        for shares, aliases_modes, kept, same, untouched in run_spmd(NRANKS, job):
            assert not shares
            assert not aliases_modes
            assert kept
            assert same
            assert untouched

    @pytest.mark.parametrize("nranks", [1, 2, 3])
    def test_parallel_qr_values_writable_only_at_rank_zero(
        self, stream_matrix, nranks
    ):
        """Rank 0 keeps the small SVD it computed, writable; every other
        rank receives the read-only snapshot the communicator shares."""

        def job(comm):
            part = block_partition(M, comm.size)
            block = stream_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=0.97))
            svd.initialize(block[:, :BATCH])
            _, u_new, s_new = svd.parallel_qr(block[:, BATCH : 2 * BATCH])
            return u_new.flags.writeable, s_new.flags.writeable

        for rank, writable in enumerate(run_spmd(nranks, job)):
            assert writable == (rank == 0, rank == 0), rank


class TestAllocationFlatness:
    def test_per_step_allocated_bytes_flat_over_50_steps(self, rng):
        """tracemalloc regression: per-step allocation must not grow with
        the number of snapshots seen, and the workspace must not leak."""
        m, k, batch, steps, warmup = 240, 6, 10, 50, 8
        left = rng.standard_normal((m, 4))
        right = rng.standard_normal((4, batch * (steps + warmup + 1)))
        data = left @ right

        comm = create_communicator("self")
        svd = ParSVDParallel(comm, solver=SolverConfig(K=k, ff=0.97))
        svd.initialize(data[:, :batch])
        col = batch

        def step():
            nonlocal col
            svd.incorporate_data(data[:, col : col + batch])
            col += batch

        for _ in range(warmup):
            step()

        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            per_step = []
            net = []
            for _ in range(steps):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                step()
                after, peak = tracemalloc.get_traced_memory()
                per_step.append(peak - before)
                net.append(after - before)
        finally:
            tracemalloc.stop()
            gc.enable()

        early = float(np.mean(per_step[:10]))
        late = float(np.mean(per_step[-10:]))
        # Flat after warmup: the late-stream per-step allocation stays
        # within 25% of the early one (identical in practice; the margin
        # absorbs interpreter noise).
        assert late <= 1.25 * early + 4096
        # And the streaming state itself must not accumulate: net traced
        # growth per step is bounded by interpreter noise, far below one
        # (m, k + batch) float64 workspace buffer per step.
        buffer_bytes = m * (k + batch) * 8
        assert float(np.mean(net)) < 0.25 * buffer_bytes
