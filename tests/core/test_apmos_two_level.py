"""APMOS's grouped (two-level) gather: ``apmos_svd(..., group_size=g)``."""

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.apmos import apmos_svd, generate_right_vectors, grouped
from repro.exceptions import ShapeError
from repro.smpi import ParallelFailure, SelfCommunicator, run_spmd
from repro.utils.partition import block_partition


def run_apmos(data, nranks, r1, r2, trace=False, **options):
    """APMOS over ``nranks`` row blocks of ``data``: the stacked modes,
    rank 0's values and (with ``trace``) the per-rank tracers."""

    def job(comm):
        part = block_partition(data.shape[0], comm.size)
        block = data[part.slice_of(comm.rank), :]
        return apmos_svd(comm, block, r1=r1, r2=r2, **options)

    results = run_spmd(nranks, job, trace=trace)
    if trace:
        results, tracers = results
    u = np.concatenate([r[0] for r in results], axis=0)
    return (u, results[0][1]) + ((tracers,) if trace else ())


def run_two_level(data, nranks, group_size, r1, r2):
    return run_apmos(data, nranks, r1, r2, group_size=group_size)


def run_flat(data, nranks, r1, r2):
    return run_apmos(data, nranks, r1, r2)


class TestEquivalence:
    @pytest.mark.parametrize("group_size", [1, 2, 3, 6, 10])
    def test_matches_flat_apmos_untruncated(self, decaying_matrix, group_size):
        """With r1 >= rank of each group stack the hierarchy is exact."""
        u_flat, s_flat = run_flat(decaying_matrix, 6, r1=40, r2=4)
        u_two, s_two = run_two_level(
            decaying_matrix, 6, group_size, r1=40, r2=4
        )
        assert np.allclose(s_two, s_flat, rtol=1e-10)
        assert np.allclose(np.abs(u_two), np.abs(u_flat), atol=1e-8)

    def test_matches_exact_svd(self, decaying_matrix):
        u, s = run_two_level(decaying_matrix, 6, 2, r1=40, r2=4)
        s_ref = np.linalg.svd(decaying_matrix, compute_uv=False)
        assert np.allclose(s, s_ref[: s.shape[0]], rtol=1e-9)

    def test_group_size_does_not_divide_ranks(self, decaying_matrix):
        """5 ranks in groups of 2 -> groups of sizes 2,2,1."""
        u, s = run_two_level(decaying_matrix, 5, 2, r1=40, r2=3)
        s_ref = np.linalg.svd(decaying_matrix, compute_uv=False)
        assert np.allclose(s, s_ref[: s.shape[0]], rtol=1e-9)

    def test_all_ranks_same_values(self, decaying_matrix):
        def job(comm):
            part = block_partition(decaying_matrix.shape[0], comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            _, s = apmos_svd(comm, block, r1=30, r2=3, group_size=2)
            return s

        results = run_spmd(4, job)
        for s in results[1:]:
            assert np.array_equal(s, results[0])

    def test_modes_globally_orthonormal(self, decaying_matrix):
        u, s = run_two_level(decaying_matrix, 6, 3, r1=40, r2=4)
        gram = u.T @ u
        assert np.allclose(gram, np.eye(s.shape[0]), atol=1e-8)

    def test_single_rank(self, decaying_matrix):
        u, s = apmos_svd(
            SelfCommunicator(), decaying_matrix, r1=40, r2=3, group_size=4
        )
        s_ref = np.linalg.svd(decaying_matrix, compute_uv=False)
        assert np.allclose(s, s_ref[: s.shape[0]], rtol=1e-10)

    def test_invalid_group_size(self, decaying_matrix):
        def job(comm):
            apmos_svd(comm, decaying_matrix, r1=10, r2=2, group_size=0)

        with pytest.raises(ParallelFailure) as info:
            run_spmd(2, job, timeout=5.0)
        assert any(
            isinstance(f.exception, ShapeError) for f in info.value.failures
        )


class TestTrafficAdvantage:
    def test_root_gather_volume_reduced(self, decaying_matrix):
        """The whole point: rank 0 receives fewer bytes hierarchically."""
        *_, tracers_flat = run_apmos(decaying_matrix, 6, 40, 3, trace=True)
        *_, tracers_two = run_apmos(
            decaying_matrix, 6, 40, 3, trace=True, group_size=3
        )
        part = block_partition(decaying_matrix.shape[0], 6)
        widths = [
            generate_right_vectors(decaying_matrix[part.slice_of(rank)], 40)[
                1
            ].size
            for rank in range(6)
        ]
        column = decaying_matrix.shape[1] * decaying_matrix.itemsize
        # Flat: rank 0 receives W_i from its 5 peers.  Grouped: W_1 and
        # W_2 from its group, then the other leader's surrogate, whose 20
        # columns are the planted rank of its group's stack.
        flat_bytes = tracers_flat[0].bytes_for("gather")
        two_bytes = tracers_two[0].bytes_for("gather")
        assert flat_bytes == column * sum(widths[1:])
        assert two_bytes == column * (widths[1] + widths[2] + 20)
        assert 0 < two_bytes < flat_bytes
        # Group gather, leaders' gather, then the two broadcasts.
        assert [r.op for r in tracers_two[0].records] == [
            "gather", "gather", "bcast", "bcast"
        ]


class TestDegenerateGroupSizes:
    def test_grouped_only_strictly_between_one_and_the_rank_count(self):
        assert [grouped(6, g) for g in (None, 1, 2, 5, 6, 10)] == [
            False, False, True, True, False, False
        ]
        assert not grouped(1, 1) and not grouped(2, 2)

    @pytest.mark.parametrize("low_rank", [False, True], ids=["dense", "randomized"])
    @pytest.mark.parametrize("nranks", [1, 3, 6])
    def test_single_gather_bit_for_bit(self, decaying_matrix, nranks, low_rank):
        """A group of one rank, or one group holding every rank, is the
        single gather: same arrays, same ops and bytes at rank 0."""
        options = dict(low_rank=low_rank, oversampling=2, rng=7)
        u_flat, s_flat, tracers_flat = run_apmos(
            decaying_matrix, nranks, 12, 5, trace=True, **options
        )
        flat_ops = [(r.op, r.nbytes) for r in tracers_flat[0].records]
        for group_size in sorted({1, nranks, nranks + 4}):
            u, s, tracers = run_apmos(
                decaying_matrix, nranks, 12, 5, trace=True,
                group_size=group_size, **options,
            )
            assert np.array_equal(u, u_flat), group_size
            assert np.array_equal(s, s_flat), group_size
            assert [(r.op, r.nbytes) for r in tracers[0].records] == flat_ops


class TestScalingModel:
    def test_two_level_improves_high_rank_efficiency(self):
        from repro.perf.scaling import WeakScalingStudy

        study = WeakScalingStudy(calibrate=False)
        counts = study.paper_rank_counts(max_nodes=256)
        flat = study.run(counts)
        hier = study.run(counts, group_size=64)
        # at 16384 ranks the hierarchy must be substantially better
        assert hier.efficiency[-1] > flat.efficiency[-1] * 1.5
        # and never worse than half at small scale
        assert np.all(hier.efficiency >= flat.efficiency * 0.5)

    def test_degenerate_group_sizes_match_flat(self):
        from repro.perf.scaling import WeakScalingStudy

        study = WeakScalingStudy(calibrate=False)
        p_flat = study.point(256)
        for g in (None, 1, 256, 1000):
            p = study.point(256, group_size=g)
            assert p.total_s == pytest.approx(p_flat.total_s)


class TestParallelClassIntegration:
    def test_parallel_class_with_group_size(self, decaying_matrix):
        """ParSVDParallel(apmos_group_size=...) matches the flat class."""

        def run(group_size):
            from repro import ParSVDParallel

            def job(comm):
                part = block_partition(decaying_matrix.shape[0], comm.size)
                block = decaying_matrix[part.slice_of(comm.rank), :]
                svd = ParSVDParallel(
                    comm,
                    solver=SolverConfig(K=4, ff=1.0, apmos_group_size=group_size),
                )
                svd.initialize(block[:, :20])
                svd.incorporate_data(block[:, 20:])
                return svd.modes, svd.singular_values

            return run_spmd(4, job)[0]

        flat_modes, flat_values = run(None)
        two_modes, two_values = run(2)
        assert np.allclose(two_values, flat_values, rtol=1e-10)
        assert np.allclose(np.abs(two_modes), np.abs(flat_modes), atol=1e-8)

    def test_invalid_group_size_rejected(self, decaying_matrix):
        from repro import ParSVDParallel
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ParSVDParallel(
                SelfCommunicator(),
                solver=SolverConfig(K=2, apmos_group_size=0),
            )
