"""Integration: streaming abstractions driving the SVD classes."""

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig
from repro.data.burgers import BurgersProblem
from repro.data.io import SnapshotDataset, write_snapshot_dataset
from repro.data.streams import array_stream, dataset_stream, function_stream
from repro.smpi import run_spmd
from repro.utils.partition import block_partition


@pytest.fixture(scope="module")
def burgers():
    return BurgersProblem(nx=256, nt=80)


class TestStreamDrivers:
    def test_array_stream_drives_serial(self, burgers):
        data = burgers.snapshot_matrix()
        svd = ParSVDSerial(K=5, ff=1.0).fit_stream(array_stream(data, 20))
        u, s, _ = np.linalg.svd(data, full_matrices=False)
        # Burgers has rank >> K, so streaming carries a small
        # truncation error on even the leading value
        assert np.allclose(svd.singular_values[0], s[0], rtol=1e-4)

    def test_dataset_stream_drives_serial(self, burgers, tmp_path):
        data = burgers.snapshot_matrix()
        path = write_snapshot_dataset(tmp_path / "b.rsnap", data)
        stream = dataset_stream(SnapshotDataset.open(path), 25)
        svd = ParSVDSerial(K=4, ff=1.0).fit_stream(stream)
        assert svd.n_seen == 80
        assert svd.iteration == 4  # ceil(80/25)

    def test_function_stream_in_situ_pattern(self, burgers):
        """The in-situ pattern: batches produced on demand by a 'simulation'."""
        times = burgers.times
        batch = 16

        def produce(index):
            start = index * batch
            if start >= len(times):
                return None
            chunk = times[start : start + batch]
            out = np.empty((burgers.nx, len(chunk)))
            for j, t in enumerate(chunk):
                out[:, j] = burgers.solution(float(t))
            return out

        svd = ParSVDSerial(K=4, ff=0.95).fit_stream(function_stream(produce))
        assert svd.n_seen == 80
        assert svd.modes.shape == (256, 4)

    def test_restricted_stream_drives_parallel_ranks(self, burgers):
        """Each rank consumes the same global stream restricted to its rows
        and all ranks converge to one global answer."""
        data = burgers.snapshot_matrix()

        def job(comm):
            part = block_partition(data.shape[0], comm.size)
            stream = array_stream(data, 20).restrict_rows(
                part.slice_of(comm.rank)
            )
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0))
            return svd.fit_stream(stream).singular_values

        results = run_spmd(3, job)
        u, s, _ = np.linalg.svd(data, full_matrices=False)
        for values in results:
            assert np.allclose(values, results[0])
        assert np.allclose(results[0][0], s[0], rtol=1e-4)

    def test_two_consumers_one_stream(self, burgers):
        """Re-iterable streams can drive several consumers (e.g. a serial
        reference and a candidate) with identical data."""
        data = burgers.snapshot_matrix()
        stream = array_stream(data, 40)
        a = ParSVDSerial(K=3, ff=1.0).fit_stream(stream)
        b = ParSVDSerial(K=3, ff=1.0).fit_stream(stream)
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.modes, b.modes)
