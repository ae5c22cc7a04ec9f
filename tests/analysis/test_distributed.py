"""Distributed analysis reductions vs their serial references."""

import numpy as np
import pytest

from repro.analysis.distributed import (
    distributed_inner_products,
    distributed_norm,
    distributed_pod,
    distributed_project,
    distributed_reconstruction_error,
)
from repro.analysis.pod import pod
from repro.exceptions import ShapeError
from repro.smpi import SelfCommunicator, run_spmd
from repro.utils.partition import block_partition


def spmd_over_blocks(data, nranks, fn):
    """Run fn(comm, block) with data row-partitioned over nranks."""

    def job(comm):
        part = block_partition(data.shape[0], comm.size)
        return fn(comm, data[part.slice_of(comm.rank), :])

    return run_spmd(nranks, job)


class TestReductions:
    def test_inner_products_match_serial(self, decaying_matrix):
        u, _, _ = np.linalg.svd(decaying_matrix, full_matrices=False)
        basis = u[:, :5]

        def fn(comm, block):
            part = block_partition(decaying_matrix.shape[0], comm.size)
            basis_local = basis[part.slice_of(comm.rank), :]
            return distributed_inner_products(comm, basis_local, block)

        results = spmd_over_blocks(decaying_matrix, 3, fn)
        expected = basis.T @ decaying_matrix
        for r in results:
            assert np.allclose(r, expected, atol=1e-10)

    def test_norm_matches_serial(self, decaying_matrix):
        results = spmd_over_blocks(
            decaying_matrix, 4, lambda c, b: distributed_norm(c, b)
        )
        expected = np.linalg.norm(decaying_matrix)
        for r in results:
            assert r == pytest.approx(expected, rel=1e-12)

    def test_single_rank_degenerates(self, decaying_matrix):
        norm = distributed_norm(SelfCommunicator(), decaying_matrix)
        assert norm == pytest.approx(np.linalg.norm(decaying_matrix))

    def test_row_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            distributed_inner_products(
                SelfCommunicator(),
                rng.standard_normal((5, 2)),
                rng.standard_normal((6, 2)),
            )


class TestReconstructionError:
    def test_matches_serial_formula(self, decaying_matrix):
        u, _, _ = np.linalg.svd(decaying_matrix, full_matrices=False)
        basis = u[:, :4]
        expected = np.linalg.norm(
            decaying_matrix - basis @ (basis.T @ decaying_matrix)
        ) / np.linalg.norm(decaying_matrix)

        def fn(comm, block):
            part = block_partition(decaying_matrix.shape[0], comm.size)
            basis_local = basis[part.slice_of(comm.rank), :]
            return distributed_reconstruction_error(comm, block, basis_local)

        results = spmd_over_blocks(decaying_matrix, 3, fn)
        for r in results:
            assert r == pytest.approx(expected, rel=1e-6, abs=1e-10)

    def test_absolute_variant(self, decaying_matrix):
        u, _, _ = np.linalg.svd(decaying_matrix, full_matrices=False)
        basis = u[:, :4]
        rel = distributed_reconstruction_error(
            SelfCommunicator(), decaying_matrix, basis, relative=True
        )
        absolute = distributed_reconstruction_error(
            SelfCommunicator(), decaying_matrix, basis, relative=False
        )
        assert absolute == pytest.approx(
            rel * np.linalg.norm(decaying_matrix), rel=1e-10
        )

    def test_full_basis_zero_error(self, rng):
        a = rng.standard_normal((40, 8))
        u, _, _ = np.linalg.svd(a, full_matrices=False)
        err = distributed_reconstruction_error(SelfCommunicator(), a, u)
        assert err < 1e-7


class TestDistributedPod:
    def test_matches_serial_pod(self, decaying_matrix):
        serial = pod(decaying_matrix, n_modes=4, subtract_mean=True)

        def fn(comm, block):
            result, u_local = distributed_pod(comm, block, n_modes=4)
            return result.singular_values, u_local, result.coefficients

        results = spmd_over_blocks(decaying_matrix, 3, fn)
        values = results[0][0]
        modes = np.concatenate([r[1] for r in results], axis=0)
        coeffs = results[0][2]

        assert np.allclose(values, serial.singular_values[:4], rtol=1e-8)
        dots = np.abs(np.einsum("ij,ij->j", serial.modes[:, :4], modes))
        assert np.allclose(dots, 1.0, atol=1e-6)
        # coefficients agree up to the same sign convention
        signs = np.sign(np.einsum("ij,ij->j", serial.modes[:, :4], modes))
        assert np.allclose(coeffs * signs[:, None], serial.coefficients, atol=1e-6)

    def test_mean_is_local(self, decaying_matrix):
        def fn(comm, block):
            result, _ = distributed_pod(comm, block, n_modes=2)
            return result.mean

        results = spmd_over_blocks(decaying_matrix, 2, fn)
        stacked = np.concatenate(results)
        assert np.allclose(stacked, decaying_matrix.mean(axis=1))

    def test_no_mean_subtraction(self, decaying_matrix):
        result, _ = distributed_pod(
            SelfCommunicator(), decaying_matrix, n_modes=3, subtract_mean=False
        )
        assert np.allclose(result.mean, 0.0)

    def test_invalid_n_modes(self, decaying_matrix):
        with pytest.raises(ShapeError):
            distributed_pod(SelfCommunicator(), decaying_matrix, n_modes=0)
