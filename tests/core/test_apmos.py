"""Unit tests for APMOS (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.apmos import apmos_svd, generate_right_vectors, stack_gathered
from repro.core.metrics import mode_errors
from repro.exceptions import ShapeError
from repro.smpi import SelfCommunicator, run_spmd
from repro.utils.partition import block_partition


class TestGenerateRightVectors:
    def test_svd_and_mos_agree(self, decaying_matrix):
        v1, s1 = generate_right_vectors(decaying_matrix, 10, method="svd")
        v2, s2 = generate_right_vectors(decaying_matrix, 10, method="mos")
        assert np.allclose(s1, s2, rtol=1e-8)
        # right vectors agree up to sign
        dots = np.abs(np.einsum("ij,ij->j", v1, v2))
        assert np.allclose(dots, 1.0, atol=1e-7)

    def test_truncation(self, decaying_matrix):
        v, s = generate_right_vectors(decaying_matrix, 7)
        assert v.shape == (40, 7)
        assert s.shape == (7,)

    def test_auto_prefers_mos_for_tall(self, rng):
        a = rng.standard_normal((400, 20))
        v, s = generate_right_vectors(a, 5, method="auto")
        v_ref, s_ref = generate_right_vectors(a, 5, method="svd")
        assert np.allclose(s, s_ref, rtol=1e-8)

    def test_rank_deficient_clipped(self, rng):
        # rank-2 matrix: only 2 meaningful right vectors remain
        a = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 20))
        v, s = generate_right_vectors(a, 10)
        assert s.shape[0] == 2
        assert np.all(s > 0)

    def test_values_descending(self, decaying_matrix):
        _, s = generate_right_vectors(decaying_matrix, 10)
        assert np.all(np.diff(s) <= 0)

    def test_invalid_inputs(self, decaying_matrix):
        with pytest.raises(ShapeError):
            generate_right_vectors(decaying_matrix, 0)
        with pytest.raises(ShapeError):
            generate_right_vectors(np.ones(4), 2)
        with pytest.raises(ShapeError):
            generate_right_vectors(decaying_matrix, 5, method="bogus")


class TestStackGathered:
    def test_column_stacks(self, rng):
        blocks = [rng.standard_normal((6, 2)), rng.standard_normal((6, 3))]
        stacked = stack_gathered(blocks)
        assert stacked.shape == (6, 5)
        assert np.array_equal(stacked[:, :2], blocks[0])

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            stack_gathered([])


class TestApmosSvd:
    def _reference(self, data, r2):
        u, s, _ = np.linalg.svd(data, full_matrices=False)
        return u[:, :r2], s[:r2]

    def test_single_rank_matches_svd(self, decaying_matrix):
        u_ref, s_ref = self._reference(decaying_matrix, 5)
        u, s = apmos_svd(SelfCommunicator(), decaying_matrix, r1=40, r2=5)
        assert np.allclose(s, s_ref, rtol=1e-10)
        assert mode_errors(u_ref, u).max() < 1e-8

    @pytest.mark.parametrize("nranks", [2, 3, 4, 5])
    def test_multirank_matches_svd(self, decaying_matrix, nranks):
        m = decaying_matrix.shape[0]
        u_ref, s_ref = self._reference(decaying_matrix, 5)

        def job(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            return apmos_svd(comm, block, r1=40, r2=5)

        results = run_spmd(nranks, job)
        s = results[0][1]
        u = np.concatenate([r[0] for r in results], axis=0)
        assert np.allclose(s, s_ref, rtol=1e-8)
        assert mode_errors(u_ref, u).max() < 1e-6

    def test_all_ranks_same_values(self, decaying_matrix):
        m = decaying_matrix.shape[0]

        def job(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            _, s = apmos_svd(comm, block, r1=30, r2=4)
            return s

        results = run_spmd(3, job)
        for s in results[1:]:
            assert np.array_equal(s, results[0])

    def test_r1_truncation_degrades_gracefully(self, decaying_matrix):
        """Small r1 loses accuracy but stays a valid factorization."""
        m = decaying_matrix.shape[0]
        _, s_ref = self._reference(decaying_matrix, 3)

        def job(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            return apmos_svd(comm, block, r1=5, r2=3)

        results = run_spmd(4, job)
        s = results[0][1]
        assert np.all(np.diff(s) <= 0)
        # leading value should still be well captured
        assert abs(s[0] - s_ref[0]) / s_ref[0] < 1e-2

    def test_low_rank_variant(self, decaying_matrix):
        m = decaying_matrix.shape[0]
        u_ref, s_ref = self._reference(decaying_matrix, 4)

        def job(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            return apmos_svd(
                comm, block, r1=40, r2=4,
                low_rank=True, oversampling=10, power_iters=2, rng=0,
            )

        results = run_spmd(2, job)
        s = results[0][1]
        assert np.allclose(s, s_ref, rtol=1e-6)

    def test_r2_larger_than_rank_clipped(self, rng):
        a = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 20))
        u, s = apmos_svd(SelfCommunicator(), a, r1=10, r2=10)
        assert s.shape[0] <= 3
        assert np.all(s > 0)

    def test_local_modes_partition_of_unity(self, decaying_matrix):
        """Stacked local modes must be orthonormal globally."""
        m = decaying_matrix.shape[0]

        def job(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            u_local, _ = apmos_svd(comm, block, r1=40, r2=5)
            return u_local

        results = run_spmd(3, job)
        u = np.concatenate(results, axis=0)
        gram = u.T @ u
        assert np.allclose(gram, np.eye(5), atol=1e-8)
