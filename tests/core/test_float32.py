"""float32 end-to-end support: memory-halved pipelines keep their dtype."""

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig
from repro.core.apmos import apmos_svd, generate_right_vectors
from repro.core.streaming import initialize_streaming, incorporate_batch
from repro.core.tsqr import tsqr_gather, tsqr_tree
from repro.exceptions import ShapeError
from repro.smpi import SelfCommunicator, run_spmd
from repro.utils.linalg import as_floating
from repro.utils.partition import block_partition


@pytest.fixture
def data32(rng):
    # rank 3 < K=4 so streaming/APMOS truncation is exact and any error in
    # the accuracy test is genuinely a precision effect
    left = rng.standard_normal((150, 3)).astype(np.float32)
    right = rng.standard_normal((3, 40)).astype(np.float32)
    return left @ right


class TestAsFloating:
    def test_float32_preserved(self):
        a = np.ones((3, 2), dtype=np.float32)
        assert as_floating(a).dtype == np.float32

    def test_float64_preserved(self):
        a = np.ones((3, 2), dtype=np.float64)
        assert as_floating(a).dtype == np.float64

    def test_ints_promote(self):
        assert as_floating(np.ones((2, 2), dtype=np.int32)).dtype == np.float64

    def test_bools_promote(self):
        assert as_floating(np.ones(3, dtype=bool)).dtype == np.float64

    def test_complex_rejected(self):
        with pytest.raises(ShapeError):
            as_floating(np.ones(3, dtype=complex))

    def test_lists_promote(self):
        assert as_floating([[1, 2], [3, 4]]).dtype == np.float64


class TestStreamingFloat32:
    def test_state_stays_float32(self, data32):
        state = initialize_streaming(data32[:, :10], 4)
        assert state.modes.dtype == np.float32
        state = incorporate_batch(state, data32[:, 10:20], 4, 0.95)
        assert state.modes.dtype == np.float32
        assert state.singular_values.dtype == np.float32

    def test_serial_class_float32(self, data32):
        svd = ParSVDSerial(K=4, ff=1.0)
        svd.initialize(data32[:, :20])
        svd.incorporate_data(data32[:, 20:])
        assert svd.modes.dtype == np.float32
        assert svd.singular_values.dtype == np.float32

    def test_accuracy_within_single_precision(self, data32):
        svd = ParSVDSerial(K=4, ff=1.0)
        svd.initialize(data32[:, :20])
        svd.incorporate_data(data32[:, 20:])
        s64 = np.linalg.svd(data32.astype(np.float64), compute_uv=False)[:3]
        rel = np.abs(svd.singular_values[:3].astype(np.float64) - s64) / s64
        assert np.max(rel) < 1e-4  # single-precision regime


class TestDistributedFloat32:
    def test_apmos_float32(self, data32):
        u, s = apmos_svd(SelfCommunicator(), data32, r1=20, r2=4)
        assert u.dtype == np.float32
        assert s.dtype == np.float32

    def test_right_vectors_float32(self, data32):
        v, s = generate_right_vectors(data32, 8)
        assert v.dtype == np.float32

    @pytest.mark.parametrize("fn", [tsqr_gather, tsqr_tree])
    def test_tsqr_float32(self, data32, fn):
        m = data32.shape[0]

        def job(comm):
            part = block_partition(m, comm.size)
            q, r = fn(comm, data32[part.slice_of(comm.rank), :20])
            return q.dtype, r.dtype

        results = run_spmd(2, job)
        for qd, rd in results:
            assert qd == np.float32
            assert rd == np.float32

    def test_parallel_class_float32(self, data32):
        m = data32.shape[0]

        def job(comm):
            part = block_partition(m, comm.size)
            block = data32[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0))
            svd.initialize(block[:, :20])
            svd.incorporate_data(block[:, 20:])
            return svd.modes.dtype, svd.singular_values.dtype

        results = run_spmd(2, job)
        for md, sd in results:
            assert md == np.float32
            assert sd == np.float32
