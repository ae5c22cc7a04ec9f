"""Serving equivalence matrix (ISSUE 2 acceptance criterion).

The sharded :class:`QueryEngine` must answer project / reconstruct /
reconstruction-error queries identically (1e-10) to the serial
``analysis/reconstruction.py`` reference, across every registered
in-process communicator backend and shard counts {1, 2, 4} — plus the
end-to-end path: stream with ``ParSVDParallel``, export to a store,
restart from the gathered checkpoint, serve.
"""

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig, run_backend
from repro.analysis.reconstruction import (
    project_coefficients,
    reconstruct,
    reconstruction_error_curve,
)
from repro.serving import ModeBaseStore, QueryEngine
from repro.utils.linalg import align_signs
from repro.utils.partition import block_partition

M, N, BATCH, K, QW = 160, 90, 30, 5, 4

#: (backend, shard count) pairs runnable in this process; "self" is
#: single-rank by construction.
SERVING_MATRIX = [("threads", 1), ("threads", 2), ("threads", 4), ("self", 1)]


@pytest.fixture(scope="module")
def snapshots():
    rng = np.random.default_rng(21)
    u, _ = np.linalg.qr(rng.standard_normal((M, 12)))
    v, _ = np.linalg.qr(rng.standard_normal((N, 12)))
    return (u * 0.7 ** np.arange(12)) @ v.T


@pytest.fixture(scope="module")
def queries(snapshots):
    rng = np.random.default_rng(5)
    return [
        snapshots[:, rng.integers(0, N, size=QW)] + 0.01 * rng.standard_normal((M, QW))
        for _ in range(6)
    ]


@pytest.fixture(scope="module")
def store(tmp_path_factory, snapshots):
    """Basis streamed by the parallel driver and exported to a store."""
    root = tmp_path_factory.mktemp("serving-store")
    store = ModeBaseStore(root)

    def build(comm):
        part = block_partition(M, comm.size)
        block = snapshots[part.slice_of(comm.rank), :]
        svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=1.0, r1=40))
        svd.initialize(block[:, :BATCH])
        for start in range(BATCH, N, BATCH):
            svd.incorporate_data(block[:, start : start + BATCH])
        return svd.export_to_store(store, "stream")

    run_backend("threads", 2, build)
    return store


@pytest.mark.parametrize("backend,shards", SERVING_MATRIX)
def test_engine_matches_serial_reference(backend, shards, store, queries):
    """The acceptance matrix: all three query kinds, every backend/shard
    combination, 1e-10 against analysis/reconstruction.py."""
    base = store.get("stream")
    ref = [
        (
            project_coefficients(base.modes, q),
            reconstruct(base.modes, project_coefficients(base.modes, q)),
            reconstruction_error_curve(q, base.modes)[-1],
        )
        for q in queries
    ]

    def serve(comm):
        engine = QueryEngine(comm, store)
        proj = [engine.submit_project("stream", q) for q in queries]
        errs = [engine.submit_error("stream", q) for q in queries]
        engine.flush()
        recon = [
            engine.submit_reconstruct("stream", t.result()) for t in proj
        ]
        engine.flush()
        return (
            [t.result() for t in proj],
            [t.result() for t in recon],
            [t.result() for t in errs],
            engine.stats(),
        )

    results = run_backend(backend, shards, serve)
    for coeffs, recons, errors, stats in results:  # every rank agrees
        for i, (ref_c, ref_r, ref_e) in enumerate(ref):
            assert np.max(np.abs(coeffs[i] - ref_c)) < 1e-10
            assert np.max(np.abs(recons[i] - ref_r)) < 1e-10
            assert abs(errors[i] - ref_e) < 1e-10
        # Micro-batching: 3 kinds -> 3 GEMM groups despite 18 queries.
        assert stats["gemms"] == 3
        assert stats["queries"] == 3 * len(queries)


def test_round_trip_project_reconstruct(store, queries):
    """project -> reconstruct through the engine equals the serial
    round-trip (and both are the orthogonal projection of the query)."""
    base = store.get("stream")

    def serve(comm):
        engine = QueryEngine(comm, store)
        out = []
        for q in queries:
            coeffs = engine.project("stream", q)
            out.append(engine.reconstruct("stream", coeffs))
        return out

    for got, q in zip(run_backend("threads", 4, serve)[0], queries):
        serial = reconstruct(base.modes, project_coefficients(base.modes, q))
        assert np.max(np.abs(got - serial)) < 1e-10


def test_gathered_checkpoint_restart_any_rank_count(snapshots, tmp_path):
    """Stream at 3 ranks -> gathered checkpoint -> restart at {1, 2, 4}
    ranks -> continue -> all trajectories equal the serial one."""
    ckpt = tmp_path / "gathered-state"
    half = 2 * BATCH

    serial = ParSVDSerial(K=K, ff=1.0)
    serial.initialize(snapshots[:, :BATCH])
    for start in range(BATCH, N, BATCH):
        serial.incorporate_data(snapshots[:, start : start + BATCH])

    def phase1(comm):
        part = block_partition(M, comm.size)
        block = snapshots[part.slice_of(comm.rank), :]
        svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=1.0, r1=40))
        svd.initialize(block[:, :BATCH])
        svd.incorporate_data(block[:, BATCH:half])
        return svd.save_checkpoint(ckpt, gathered=True)

    paths = run_backend("threads", 3, phase1)
    assert len(set(paths)) == 1  # one single file, same answer on all ranks

    def phase2(comm):
        part = block_partition(M, comm.size)
        block = snapshots[part.slice_of(comm.rank), :]
        svd = ParSVDParallel.from_checkpoint(comm, ckpt)
        assert svd.n_seen == half
        for start in range(half, N, BATCH):
            svd.incorporate_data(block[:, start : start + BATCH])
        return svd.modes, svd.singular_values

    for backend, nranks in SERVING_MATRIX:
        modes, values = run_backend(backend, nranks, phase2)[0]
        assert np.allclose(values, serial.singular_values, rtol=1e-8)
        aligned = align_signs(serial.modes, modes)
        assert np.max(np.abs(aligned - serial.modes)) < 1e-6
