"""Unit tests for ParSVDParallel."""

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig
from repro.core.metrics import compare_modes
from repro.exceptions import ConfigurationError, ShapeError
from repro.smpi import SelfCommunicator, run_spmd
from repro.utils.partition import block_partition


def run_parallel(data, nranks, batches, **svd_kwargs):
    """Drive ParSVDParallel over column batches on nranks ranks."""
    m = data.shape[0]

    def job(comm):
        part = block_partition(m, comm.size)
        block = data[part.slice_of(comm.rank), :]
        svd = ParSVDParallel(comm, solver=SolverConfig(**svd_kwargs))
        first = True
        for start, stop in batches:
            if first:
                svd.initialize(block[:, start:stop])
                first = False
            else:
                svd.incorporate_data(block[:, start:stop])
        return svd.modes, svd.singular_values, svd.iteration

    return run_spmd(nranks, job)


class TestConstruction:
    def test_invalid_qr_variant(self):
        with pytest.raises(ConfigurationError):
            ParSVDParallel(
                SelfCommunicator(),
                solver=SolverConfig(K=3, qr_variant="bogus"),
            )

    def test_invalid_gather_policy(self):
        with pytest.raises(ConfigurationError):
            ParSVDParallel(SelfCommunicator(), solver=SolverConfig(K=3, gather="bogus"))

    def test_invalid_apmos_group_size(self):
        with pytest.raises(ConfigurationError):
            ParSVDParallel(
                SelfCommunicator(),
                solver=SolverConfig(K=3, apmos_group_size=0),
            )

    def test_config_knobs_forwarded(self):
        svd = ParSVDParallel(
            SelfCommunicator(),
            solver=SolverConfig(K=4, ff=0.9, r1=20),
        )
        assert svd.K == 4
        assert svd.ff == 0.9
        assert svd.config.r1 == 20


class TestSingleRank:
    def test_matches_serial_one_shot(self, decaying_matrix):
        serial = ParSVDSerial(K=5, ff=1.0).initialize(decaying_matrix)
        parallel = ParSVDParallel(
            SelfCommunicator(), solver=SolverConfig(K=5, ff=1.0)
        ).initialize(decaying_matrix)
        comparison = compare_modes(
            serial.modes,
            serial.singular_values,
            parallel.modes,
            parallel.singular_values,
        )
        assert comparison.worst_spectrum_error < 1e-8
        assert comparison.worst_mode_error < 1e-6


class TestMultiRank:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_streaming_matches_serial(self, decaying_matrix, nranks):
        batches = [(0, 10), (10, 20), (20, 30), (30, 40)]
        serial = ParSVDSerial(K=5, ff=1.0)
        serial.initialize(decaying_matrix[:, :10])
        for start, stop in batches[1:]:
            serial.incorporate_data(decaying_matrix[:, start:stop])

        results = run_parallel(
            decaying_matrix, nranks, batches, K=5, ff=1.0, r1=40
        )
        modes, values, iteration = results[0]
        assert iteration == 4
        comparison = compare_modes(
            serial.modes, serial.singular_values, modes, values, n_modes=3
        )
        assert comparison.worst_spectrum_error < 1e-6
        assert comparison.worst_mode_error < 1e-4

    def test_all_ranks_agree_with_bcast_gather(self, decaying_matrix):
        results = run_parallel(
            decaying_matrix, 3, [(0, 20), (20, 40)], K=4, ff=0.95
        )
        ref_modes, ref_values, _ = results[0]
        for modes, values, _ in results[1:]:
            assert np.array_equal(modes, ref_modes)
            assert np.array_equal(values, ref_values)

    def test_tree_variant_matches_gather_variant(self, decaying_matrix):
        batches = [(0, 20), (20, 40)]
        gather_results = run_parallel(
            decaying_matrix, 4, batches, K=4, ff=1.0, qr_variant="gather"
        )
        tree_results = run_parallel(
            decaying_matrix, 4, batches, K=4, ff=1.0, qr_variant="tree"
        )
        gm, gv, _ = gather_results[0]
        tm, tv, _ = tree_results[0]
        assert np.allclose(gv, tv, rtol=1e-9)
        assert np.allclose(gm, tm, atol=1e-7)

    def test_modes_shape_is_global(self, decaying_matrix):
        results = run_parallel(decaying_matrix, 4, [(0, 40)], K=6)
        modes, values, _ = results[0]
        assert modes.shape == (200, 6)
        assert values.shape == (6,)

    def test_modes_globally_orthonormal(self, decaying_matrix):
        results = run_parallel(
            decaying_matrix, 3, [(0, 20), (20, 40)], K=5, ff=1.0
        )
        modes, _, _ = results[0]
        gram = modes.T @ modes
        assert np.allclose(gram, np.eye(5), atol=1e-8)


class TestEdgeShapes:
    @pytest.mark.parametrize("qr_variant", ["gather", "tree"])
    def test_rank_owning_zero_rows_streams(self, qr_variant):
        """3 dofs over 4 ranks: the last rank owns no rows, so its local
        factorization is 0 x (K + batch) at every step."""
        data = np.random.default_rng(0).standard_normal((3, 10))

        def job(comm):
            part = block_partition(3, comm.size)
            block = data[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm,
                solver=SolverConfig(K=2, ff=1.0, qr_variant=qr_variant),
            )
            svd.initialize(block[:, :2])
            for start in range(2, 10, 2):
                svd.incorporate_data(block[:, start : start + 2])
            return svd.local_modes.shape, svd.modes, svd.singular_values

        results = run_spmd(4, job)
        assert [shape for shape, _, _ in results] == [(1, 2)] * 3 + [(0, 2)]
        _, modes, values = results[0]
        assert np.allclose(values, [3.55670555, 2.34241133], atol=1e-8)
        assert np.allclose(modes.T @ modes, np.eye(2), atol=1e-12)
        serial = ParSVDSerial(K=2, ff=1.0)
        serial.initialize(data[:, :2])
        for start in range(2, 10, 2):
            serial.incorporate_data(data[:, start : start + 2])
        comparison = compare_modes(
            serial.modes, serial.singular_values, modes, values, n_modes=2
        )
        assert comparison.worst_spectrum_error < 1e-12
        assert comparison.worst_mode_error < 1e-10


class TestGatherPolicies:
    def test_root_policy_only_rank0_has_modes(self, decaying_matrix):
        m = decaying_matrix.shape[0]

        def job(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=3, gather="root"))
            svd.initialize(block)
            if comm.rank == 0:
                return svd.modes.shape
            with pytest.raises(ShapeError):
                _ = svd.modes
            return svd.local_modes.shape

        results = run_spmd(3, job)
        assert results[0] == (200, 3)
        part = block_partition(m, 3)
        assert results[1] == (part.counts[1], 3)

    def test_none_policy_keeps_local(self, decaying_matrix):
        m = decaying_matrix.shape[0]

        def job(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=3, gather="none"))
            svd.initialize(block)
            return svd.modes.shape, svd.local_modes.shape

        results = run_spmd(2, job)
        part = block_partition(m, 2)
        for rank, (modes_shape, local_shape) in enumerate(results):
            assert modes_shape == (part.counts[rank], 3)
            assert modes_shape == local_shape


class TestRandomized:
    def test_low_rank_close_to_dense(self, decaying_matrix):
        batches = [(0, 20), (20, 40)]
        dense = run_parallel(
            decaying_matrix, 2, batches, K=4, ff=1.0
        )
        randomized = run_parallel(
            decaying_matrix, 2, batches,
            K=4, ff=1.0, low_rank=True, oversampling=10, power_iters=2, seed=0,
        )
        dv = dense[0][1]
        rv = randomized[0][1]
        assert np.max(np.abs(dv - rv) / dv) < 1e-6

    def test_randomized_deterministic_given_seed(self, decaying_matrix):
        batches = [(0, 40)]
        a = run_parallel(
            decaying_matrix, 2, batches, K=3, low_rank=True, seed=5
        )
        b = run_parallel(
            decaying_matrix, 2, batches, K=3, low_rank=True, seed=5
        )
        assert np.array_equal(a[0][0], b[0][0])
