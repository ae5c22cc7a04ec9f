"""Checkpoint/restart of streaming state."""

import pathlib

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    rank_checkpoint_path,
    read_checkpoint,
    write_checkpoint,
)
from repro.exceptions import DataFormatError, NotInitializedError
from repro.smpi import ParallelFailure, run_spmd
from repro.utils.partition import block_partition


class TestSerialCheckpoint:
    def test_resume_equals_uninterrupted(self, decaying_matrix, tmp_path):
        """checkpoint -> restart -> continue == one uninterrupted stream."""
        batches = [(0, 10), (10, 20), (20, 30), (30, 40)]

        straight = ParSVDSerial(K=4, ff=0.95, seed=0)
        straight.initialize(decaying_matrix[:, 0:10])
        for start, stop in batches[1:]:
            straight.incorporate_data(decaying_matrix[:, start:stop])

        first = ParSVDSerial(K=4, ff=0.95, seed=0)
        first.initialize(decaying_matrix[:, 0:10])
        first.incorporate_data(decaying_matrix[:, 10:20])
        ckpt = first.save_checkpoint(tmp_path / "mid")

        resumed = ParSVDSerial.from_checkpoint(ckpt)
        resumed.incorporate_data(decaying_matrix[:, 20:30])
        resumed.incorporate_data(decaying_matrix[:, 30:40])

        assert np.allclose(
            resumed.singular_values, straight.singular_values, rtol=1e-12
        )
        assert np.allclose(resumed.modes, straight.modes, atol=1e-12)
        assert resumed.iteration == straight.iteration == 4
        assert resumed.n_seen == straight.n_seen == 40

    def test_config_restored(self, decaying_matrix, tmp_path):
        svd = ParSVDSerial(K=3, ff=0.8, low_rank=True, seed=7)
        svd.initialize(decaying_matrix)
        ckpt = svd.save_checkpoint(tmp_path / "cfg")
        resumed = ParSVDSerial.from_checkpoint(ckpt)
        assert resumed.K == 3
        assert resumed.ff == 0.8
        assert resumed.low_rank is True
        assert resumed.config.seed == 7

    def test_row_count_enforced_after_restore(self, decaying_matrix, tmp_path):
        svd = ParSVDSerial(K=3).initialize(decaying_matrix)
        ckpt = svd.save_checkpoint(tmp_path / "rows")
        resumed = ParSVDSerial.from_checkpoint(ckpt)
        from repro.exceptions import ShapeError

        with pytest.raises(ShapeError):
            resumed.incorporate_data(np.zeros((7, 3)))

    def test_uninitialised_cannot_checkpoint(self, tmp_path):
        with pytest.raises(NotInitializedError):
            ParSVDSerial(K=2).save_checkpoint(tmp_path / "x")

    def test_kind_mismatch_rejected(self, decaying_matrix, tmp_path):
        svd = ParSVDSerial(K=3).initialize(decaying_matrix)
        path = write_checkpoint(
            tmp_path / "wrongkind",
            svd.config,
            svd.modes,
            svd.singular_values,
            1,
            40,
            kind="parallel",
        )
        with pytest.raises(DataFormatError):
            ParSVDSerial.from_checkpoint(path)


class TestCheckpointFormat:
    def test_version_stamped(self, decaying_matrix, tmp_path):
        svd = ParSVDSerial(K=2).initialize(decaying_matrix)
        ckpt = svd.save_checkpoint(tmp_path / "v")
        state = read_checkpoint(ckpt)
        assert state["kind"] == "serial"
        assert CHECKPOINT_VERSION == 1

    def test_unknown_version_rejected(self, decaying_matrix, tmp_path):
        svd = ParSVDSerial(K=2).initialize(decaying_matrix)
        path = tmp_path / "future.npz"
        np.savez(
            path,
            format_version=np.asarray(999),
            kind=np.asarray("serial"),
        )
        with pytest.raises(DataFormatError):
            read_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(DataFormatError):
            read_checkpoint(path)

    def test_unreadable_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zipfile")
        with pytest.raises(DataFormatError):
            read_checkpoint(path)

    def test_rank_path_naming(self, tmp_path):
        assert rank_checkpoint_path(tmp_path / "s.npz", 3).name == "s.rank3.npz"
        assert rank_checkpoint_path(tmp_path / "s", 0).name == "s.rank0.npz"

    def test_dotted_stem_preserved(self, decaying_matrix, tmp_path):
        """Regression: 'state.v2' must become 'state.v2.npz', not
        'state.npz'."""
        svd = ParSVDSerial(K=2).initialize(decaying_matrix)
        path = svd.save_checkpoint(tmp_path / "state.v2")
        assert pathlib.Path(path).name == "state.v2.npz"
        assert not (tmp_path / "state.npz").exists()
        resumed = ParSVDSerial.from_checkpoint(path)
        assert resumed.K == 2

    def test_old_checkpoint_without_parallel_fields_readable(
        self, decaying_matrix, tmp_path
    ):
        """Format-v1 files written before the parallel run options were
        recorded must still load, with the historical defaults."""
        svd = ParSVDSerial(K=2).initialize(decaying_matrix)
        path = svd.save_checkpoint(tmp_path / "old")
        with np.load(path) as data:
            trimmed = {
                key: data[key]
                for key in data.files
                if not key.startswith("par_")
            }
        np.savez(path, **trimmed)
        state = read_checkpoint(path)
        assert state["qr_variant"] == "gather"
        assert state["gather"] == "bcast"
        assert state["apmos_group_size"] is None

    def test_failed_write_keeps_the_previous_checkpoint(
        self, decaying_matrix, monkeypatch, tmp_path
    ):
        """A write that dies part-way must leave the last good checkpoint
        readable (and no temporary file behind)."""
        svd = ParSVDSerial(K=2).initialize(decaying_matrix[:, :10])
        path = pathlib.Path(svd.save_checkpoint(tmp_path / "durable"))
        svd.incorporate_data(decaying_matrix[:, 10:20])

        def torn_savez(file, *args, **kwargs):
            if hasattr(file, "write"):
                file.write(b"half a zip")
            else:
                pathlib.Path(file).write_bytes(b"half a zip")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            svd.save_checkpoint(tmp_path / "durable")
        monkeypatch.undo()
        assert read_checkpoint(path)["n_seen"] == 10
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestParallelCheckpoint:
    def test_resume_across_spmd_runs(self, decaying_matrix, tmp_path):
        m = decaying_matrix.shape[0]
        base = tmp_path / "par"

        def phase1(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0))
            svd.initialize(block[:, :20])
            svd.save_checkpoint(base)
            return svd.singular_values

        def phase2(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel.from_checkpoint(comm, base)
            svd.incorporate_data(block[:, 20:40])
            return svd.modes, svd.singular_values, svd.iteration

        def straight(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0))
            svd.initialize(block[:, :20])
            svd.incorporate_data(block[:, 20:40])
            return svd.modes, svd.singular_values

        run_spmd(3, phase1)
        resumed = run_spmd(3, phase2)
        reference = run_spmd(3, straight)

        modes_r, values_r, iteration = resumed[0]
        modes_s, values_s = reference[0]
        assert iteration == 2
        assert np.allclose(values_r, values_s, rtol=1e-12)
        assert np.allclose(modes_r, modes_s, atol=1e-12)

    def test_rank_count_mismatch_rejected(self, decaying_matrix, tmp_path):
        m = decaying_matrix.shape[0]
        base = tmp_path / "mismatch"

        def save(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=3))
            svd.initialize(block).save_checkpoint(base)

        run_spmd(2, save)

        def load(comm):
            ParSVDParallel.from_checkpoint(comm, base)

        with pytest.raises(ParallelFailure) as info:
            run_spmd(3, load, timeout=5.0)
        assert any(
            isinstance(f.exception, DataFormatError)
            for f in info.value.failures
        )


class TestGatheredCheckpoint:
    """save_checkpoint(gathered=True): one rank-0 file, any-rank restart."""

    def _stream(self, comm, data, upto, base=None, restart=False, K=3):
        m = data.shape[0]
        part = block_partition(m, comm.size)
        block = data[part.slice_of(comm.rank), :]
        if restart:
            svd = ParSVDParallel.from_checkpoint(comm, base)
            start0 = svd.n_seen
        else:
            svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=1.0, r1=20))
            svd.initialize(block[:, :10])
            start0 = 10
        for start in range(start0, upto, 10):
            svd.incorporate_data(block[:, start : start + 10])
        return svd

    def test_single_file_written_at_rank0(self, decaying_matrix, tmp_path):
        base = tmp_path / "single"

        def job(comm):
            svd = self._stream(comm, decaying_matrix, 20)
            return svd.save_checkpoint(base, gathered=True)

        paths = run_spmd(2, job)
        assert paths == [str(tmp_path / "single.npz")] * 2
        state = read_checkpoint(paths[0])
        assert state["kind"] == "gathered"
        assert state["modes"].shape == (decaying_matrix.shape[0], 3)
        assert state["nranks"] == 2
        # No per-rank shards were produced.
        assert not rank_checkpoint_path(base, 0).exists()

    @pytest.mark.parametrize("restart_ranks", [1, 2, 3])
    def test_restart_at_any_rank_count(
        self, decaying_matrix, tmp_path, restart_ranks
    ):
        """Save gathered at 2 ranks; continuing at 1/2/3 ranks all land on
        the uninterrupted trajectory."""
        base = tmp_path / "resize"

        def phase1(comm):
            self._stream(comm, decaying_matrix, 20).save_checkpoint(
                base, gathered=True
            )

        def phase2(comm):
            svd = self._stream(
                comm, decaying_matrix, 40, base=base, restart=True
            )
            return svd.modes, svd.singular_values, svd.iteration, svd.n_seen

        def straight(comm):
            svd = self._stream(comm, decaying_matrix, 40)
            return svd.modes, svd.singular_values

        run_spmd(2, phase1)
        modes_r, values_r, iteration, n_seen = run_spmd(
            restart_ranks, phase2
        )[0]
        modes_s, values_s = run_spmd(2, straight)[0]
        assert iteration == 4
        assert n_seen == 40
        assert np.allclose(values_r, values_s, rtol=1e-10)
        assert np.allclose(modes_r, modes_s, atol=1e-10)

    def test_gathered_restores_run_options(self, decaying_matrix, tmp_path):
        base = tmp_path / "opts"
        m = decaying_matrix.shape[0]

        def save(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm,
                solver=SolverConfig(K=3, ff=0.9, qr_variant="tree", gather="root"),
            )
            svd.initialize(block)
            svd.save_checkpoint(base, gathered=True)

        def load(comm):
            svd = ParSVDParallel.from_checkpoint(comm, base)
            return svd._qr_variant, svd._gather, svd.ff

        run_spmd(2, save)
        assert run_spmd(3, load) == [("tree", "root", 0.9)] * 3

    def test_plain_file_not_gathered_rejected(
        self, decaying_matrix, tmp_path
    ):
        """A serial checkpoint sitting at the exact path is not silently
        scattered."""
        svd = ParSVDSerial(K=3).initialize(decaying_matrix)
        path = svd.save_checkpoint(tmp_path / "serialstate")

        def load(comm):
            ParSVDParallel.from_checkpoint(comm, path)

        with pytest.raises(ParallelFailure) as info:
            run_spmd(2, load, timeout=5.0)
        assert any(
            isinstance(f.exception, DataFormatError)
            for f in info.value.failures
        )

    def test_invalid_kind_rejected_at_write(self, decaying_matrix, tmp_path):
        from repro.config import SVDConfig

        with pytest.raises(DataFormatError):
            write_checkpoint(
                tmp_path / "bad",
                SVDConfig(K=3),
                decaying_matrix[:, :3],
                np.ones(3),
                1,
                10,
                kind="sideways",
            )

    def test_save_then_immediate_restart_same_job(
        self, decaying_matrix, tmp_path
    ):
        """The gathered save's exit barrier: a rank may restart from the
        file immediately after save_checkpoint returns, even though only
        rank 0 wrote it."""
        base = tmp_path / "immediate"

        def job(comm):
            svd = self._stream(comm, decaying_matrix, 20)
            svd.save_checkpoint(base, gathered=True)
            resumed = ParSVDParallel.from_checkpoint(comm, base)
            return resumed.n_seen, resumed.singular_values

        for n_seen, values in run_spmd(4, job):
            assert n_seen == 20
            assert values.shape == (3,)

    def test_results_archive_at_stem_does_not_block_shard_restart(
        self, decaying_matrix, tmp_path
    ):
        """save_results("state") + per-rank shards at the same stem: the
        gathered-file probe must fall back to the shards, not choke on the
        results archive at state.npz."""
        base = tmp_path / "state"
        m = decaying_matrix.shape[0]

        def save(comm):
            part = block_partition(m, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=3, ff=1.0, r1=20))
            svd.initialize(block)
            svd.save_checkpoint(base)  # shards state.rank<i>.npz
            svd.assemble_modes()  # collective: every rank participates
            if comm.rank == 0:
                svd.save_results(base)  # results archive at state.npz
            return svd.singular_values

        def load(comm):
            return ParSVDParallel.from_checkpoint(comm, base).singular_values

        saved = run_spmd(2, save)[0]
        assert (tmp_path / "state.npz").exists()
        assert np.allclose(run_spmd(2, load)[0], saved)
