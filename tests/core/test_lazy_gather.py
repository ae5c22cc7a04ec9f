"""Lazy mode assembly in ParSVDParallel.

The tentpole behavior: ``incorporate_data`` only invalidates the cached
gathered modes; the gather+bcast collective runs on the first ``.modes``
access after an update.  A pure streaming loop therefore performs zero
mode-assembly communication — asserted here via tracer call counts.
"""

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig
from repro.smpi import run_spmd
from repro.utils.partition import block_partition

M = 200
NRANKS = 3


def _gatherv_count(tracer):
    return sum(1 for r in tracer.records if r.op == "gatherv")


@pytest.fixture
def wide_matrix(rng):
    u, _ = np.linalg.qr(rng.standard_normal((M, 20)))
    v, _ = np.linalg.qr(rng.standard_normal((220, 20)))
    return (u * 0.6 ** np.arange(20)) @ v.T


class TestZeroGatherStreaming:
    def test_streaming_loop_defers_all_gathers(self, wide_matrix):
        """>= 10 incorporate_data calls with gather='bcast' move zero
        gatherv traffic until .modes is first read (acceptance criterion)."""

        def job(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm,
                solver=SolverConfig(K=4, ff=0.95, gather="bcast"),
            )
            svd.initialize(block[:, :20])
            for start in range(20, 220, 20):
                svd.incorporate_data(block[:, start : start + 20])
            assert svd.iteration == 11
            return svd

        results, tracers = run_spmd(NRANKS, job, trace=True)
        for tracer in tracers:
            assert _gatherv_count(tracer) == 0

    def test_first_modes_read_triggers_exactly_one_gather(self, wide_matrix):
        def job(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm,
                solver=SolverConfig(K=4, ff=0.95, gather="bcast"),
            )
            svd.initialize(block[:, :20])
            for start in range(20, 220, 20):
                svd.incorporate_data(block[:, start : start + 20])
            before = _gatherv_count(comm)
            shape = svd.modes.shape
            after_first = _gatherv_count(comm)
            _ = svd.modes  # cached: no second collective
            _ = svd.modes
            after_repeat = _gatherv_count(comm)
            return before, after_first, after_repeat, shape

        results, _ = run_spmd(NRANKS, job, trace=True)
        for before, after_first, after_repeat, shape in results:
            assert before == 0
            assert after_first == 1
            assert after_repeat == 1
            assert shape == (M, 4)

    def test_update_after_read_invalidates_cache(self, wide_matrix):
        def job(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0, gather="bcast"))
            svd.initialize(block[:, :40])
            first = np.array(svd.modes)
            assert svd.modes_current
            svd.incorporate_data(block[:, 40:80])
            assert not svd.modes_current
            second = svd.modes
            assert svd.modes_current
            return float(np.max(np.abs(first - second))), _gatherv_count(comm)

        results, _ = run_spmd(NRANKS, job, trace=True)
        for drift, gathers in results:
            assert drift > 0.0  # the factorization really moved
            assert gathers == 2  # one per read epoch, none per update

    def test_gather_none_never_communicates(self, wide_matrix):
        def job(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, gather="none"))
            svd.initialize(block[:, :40])
            svd.incorporate_data(block[:, 40:80])
            assert svd.modes.shape[0] == part.counts[comm.rank]
            return _gatherv_count(comm)

        results, _ = run_spmd(NRANKS, job, trace=True)
        assert results == [0] * NRANKS

    def test_root_policy_assembles_on_root_only(self, wide_matrix):
        """All ranks participate in the lazy collective; non-roots then
        raise and fall back to local_modes."""
        from repro.exceptions import ShapeError

        def job(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=3, gather="root"))
            svd.initialize(block[:, :40])
            if comm.rank == 0:
                return svd.modes.shape
            with pytest.raises(ShapeError):
                _ = svd.modes
            return svd.local_modes.shape

        results = run_spmd(NRANKS, job)
        part = block_partition(M, NRANKS)
        assert results[0] == (M, 3)
        assert results[1] == (part.counts[1], 3)

    def test_assemble_modes_is_explicit_collective(self, wide_matrix):
        def job(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=3, gather="root"))
            svd.initialize(block[:, :40])
            out = svd.assemble_modes()
            return None if out is None else out.shape

        results = run_spmd(NRANKS, job)
        assert results[0] == (M, 3)
        assert results[1] is None and results[2] is None

    def test_all_ranks_agree_after_lazy_bcast(self, wide_matrix):
        def job(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0))
            svd.initialize(block[:, :40])
            svd.incorporate_data(block[:, 40:80])
            return svd.modes, svd.singular_values

        results = run_spmd(NRANKS, job)
        ref_modes, ref_values = results[0]
        for modes, values in results[1:]:
            assert np.array_equal(modes, ref_modes)
            assert np.array_equal(values, ref_values)


class TestLazyCheckpointRestart:
    def test_roundtrip_without_intermediate_reads(self, wide_matrix, tmp_path):
        """checkpoint -> restart -> continue under the lazy path equals an
        uninterrupted stream, with zero gathers before the final read."""
        base = tmp_path / "lazy"

        def phase1(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=0.95, seed=0))
            svd.initialize(block[:, :40])
            for start in range(40, 80, 20):
                svd.incorporate_data(block[:, start : start + 20])
            svd.save_checkpoint(base)
            return _gatherv_count(comm)

        def phase2(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel.from_checkpoint(comm, base)
            for start in range(80, 220, 20):
                svd.incorporate_data(block[:, start : start + 20])
            gathers_before_read = _gatherv_count(comm)
            return svd.modes, svd.singular_values, gathers_before_read

        def straight(comm):
            part = block_partition(M, comm.size)
            block = wide_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=0.95, seed=0))
            svd.initialize(block[:, :40])
            for start in range(40, 220, 20):
                svd.incorporate_data(block[:, start : start + 20])
            return svd.modes, svd.singular_values

        phase1_gathers, _ = run_spmd(NRANKS, phase1, trace=True)
        assert [g for g in phase1_gathers] == [0] * NRANKS

        resumed, _ = run_spmd(NRANKS, phase2, trace=True)
        reference = run_spmd(NRANKS, straight)

        modes_r, values_r, gathers = resumed[0]
        modes_s, values_s = reference[0]
        assert gathers == 0
        assert np.allclose(values_r, values_s, rtol=1e-12)
        assert np.allclose(modes_r, modes_s, atol=1e-12)


class TestCheckpointKnobPersistence:
    def test_parallel_knobs_roundtrip(self, decaying_matrix, tmp_path):
        """qr_variant / gather / apmos_group_size survive a restart."""
        base = tmp_path / "knobs"

        def save(comm):
            part = block_partition(M, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm,
                solver=SolverConfig(
                    K=3,
                    qr_variant="tree",
                    gather="root",
                    apmos_group_size=2,
                ),
            )
            svd.initialize(block)
            svd.save_checkpoint(base)

        def load(comm):
            svd = ParSVDParallel.from_checkpoint(comm, base)
            return (
                svd._qr_variant,
                svd._gather,
                svd._apmos_group_size,
            )

        run_spmd(4, save)
        results = run_spmd(4, load)
        assert results == [("tree", "root", 2)] * 4

    def test_explicit_override_beats_recorded(self, decaying_matrix, tmp_path):
        base = tmp_path / "override"

        def save(comm):
            svd = ParSVDParallel(
                comm,
                solver=SolverConfig(K=3, qr_variant="tree", gather="none"),
            )
            svd.initialize(decaying_matrix)
            svd.save_checkpoint(base)

        def load(comm):
            svd = ParSVDParallel.from_checkpoint(
                comm, base, solver=SolverConfig(K=3, gather="bcast")
            )
            return svd._qr_variant, svd._gather

        run_spmd(1, save)
        assert run_spmd(1, load) == [("gather", "bcast")]

    def test_restored_two_level_matches_straight_run(
        self, decaying_matrix, tmp_path
    ):
        """The regression this fixes: a restored instance used to fall back
        silently to single-level APMOS."""
        base = tmp_path / "twolevel"

        def save(comm):
            part = block_partition(M, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm,
                solver=SolverConfig(K=3, ff=1.0, apmos_group_size=2),
            )
            svd.initialize(block[:, :20])
            svd.save_checkpoint(base)

        def resume(comm):
            part = block_partition(M, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel.from_checkpoint(comm, base)
            assert svd._apmos_group_size == 2
            svd.incorporate_data(block[:, 20:40])
            return svd.singular_values

        run_spmd(4, save)
        values = run_spmd(4, resume)[0]

        serial = ParSVDSerial(K=3, ff=1.0)
        serial.initialize(decaying_matrix[:, :20])
        serial.incorporate_data(decaying_matrix[:, 20:40])
        assert np.allclose(values, serial.singular_values, rtol=1e-6)
