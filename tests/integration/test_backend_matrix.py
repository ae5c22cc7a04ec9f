"""Cross-backend / cross-policy equivalence matrix.

The communicator protocol promises that the same driver code produces the
same factorization on every backend and under every gather policy /
QR variant.  This matrix pins that promise against the serial reference.
"""

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig, run_backend
from repro.core.metrics import compare_modes
from repro.utils.linalg import align_signs
from repro.utils.partition import block_partition

M, N, BATCH, K = 200, 120, 30, 5

#: (backend, nranks) pairs runnable in this process.
BACKENDS_UNDER_TEST = [("threads", 3), ("self", 1)]


@pytest.fixture(scope="module")
def snapshots():
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((M, 16)))
    v, _ = np.linalg.qr(rng.standard_normal((N, 16)))
    return (u * 0.6 ** np.arange(16)) @ v.T


@pytest.fixture(scope="module")
def serial_reference(snapshots):
    svd = ParSVDSerial(K=K, ff=1.0)
    svd.initialize(snapshots[:, :BATCH])
    for start in range(BATCH, N, BATCH):
        svd.incorporate_data(snapshots[:, start : start + BATCH])
    return svd


def stream_job(snapshots, gather, qr_variant):
    def job(comm):
        part = block_partition(M, comm.size)
        block = snapshots[part.slice_of(comm.rank), :]
        svd = ParSVDParallel(
            comm,
            solver=SolverConfig(
                K=K,
                ff=1.0,
                r1=40,
                gather=gather,
                qr_variant=qr_variant,
            ),
        )
        svd.initialize(block[:, :BATCH])
        for start in range(BATCH, N, BATCH):
            svd.incorporate_data(block[:, start : start + BATCH])
        if gather == "none":
            # No global assembly: stack the local blocks for comparison.
            global_modes = comm.gatherv_rows(svd.local_modes, root=0)
            global_modes = comm.bcast(global_modes, root=0)
        else:
            # Collective on every rank; None on non-roots under "root".
            global_modes = svd.assemble_modes()
        return global_modes, svd.singular_values

    return job


@pytest.mark.parametrize("backend,nranks", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("qr_variant", ["gather", "tree"])
@pytest.mark.parametrize("gather", ["bcast", "root", "none"])
def test_matrix_matches_serial(
    snapshots, serial_reference, backend, nranks, gather, qr_variant
):
    results = run_backend(backend, nranks, stream_job(snapshots, gather, qr_variant))
    modes, values = results[0]
    assert modes is not None and modes.shape == (M, K)
    comparison = compare_modes(
        serial_reference.modes,
        serial_reference.singular_values,
        modes,
        values,
        n_modes=3,
    )
    assert comparison.worst_spectrum_error < 1e-8
    assert comparison.worst_mode_error < 1e-6


@pytest.mark.parametrize("backend,nranks", BACKENDS_UNDER_TEST)
def test_checkpoint_restart_roundtrip_lazy(
    snapshots, serial_reference, backend, nranks, tmp_path
):
    """checkpoint -> restart -> continue on each backend under the lazy
    gather path stays on the serial reference trajectory."""
    base = tmp_path / f"matrix-{backend}"

    def phase1(comm):
        part = block_partition(M, comm.size)
        block = snapshots[part.slice_of(comm.rank), :]
        svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=1.0, r1=40))
        svd.initialize(block[:, :BATCH])
        svd.incorporate_data(block[:, BATCH : 2 * BATCH])
        svd.save_checkpoint(base)

    def phase2(comm):
        part = block_partition(M, comm.size)
        block = snapshots[part.slice_of(comm.rank), :]
        svd = ParSVDParallel.from_checkpoint(comm, base)
        for start in range(2 * BATCH, N, BATCH):
            svd.incorporate_data(block[:, start : start + BATCH])
        return svd.modes, svd.singular_values, svd.n_seen

    run_backend(backend, nranks, phase1)
    modes, values, n_seen = run_backend(backend, nranks, phase2)[0]

    assert n_seen == N
    ref = serial_reference
    assert np.allclose(values, ref.singular_values, rtol=1e-7)
    aligned = align_signs(ref.modes, modes)
    assert np.max(np.abs(aligned - ref.modes)) < 1e-6
