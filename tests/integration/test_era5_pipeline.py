"""Integration: the Figure-2 workflow — parallel IO + streaming SVD +
coherent-structure extraction on the ERA5-like field."""

import numpy as np
import pytest

from repro import ParSVDParallel, SolverConfig
from repro.analysis.coherent import extract_coherent_structures
from repro.data.era5_like import Era5LikeField
from repro.data.io import SnapshotDataset, write_snapshot_dataset
from repro.smpi import run_spmd
from repro.utils.partition import block_partition


@pytest.fixture(scope="module")
def field():
    return Era5LikeField(nlat=16, nlon=32, nt=160, noise_amp=0.3, seed=2)


@pytest.fixture(scope="module")
def dataset_path(field, tmp_path_factory):
    """Anomaly record written to the snapshot container (the 'NetCDF')."""
    path = tmp_path_factory.mktemp("era5") / "pressure.rsnap"
    write_snapshot_dataset(
        path,
        field.anomaly_snapshots(),
        meta={"field": "surface_pressure_anomaly", "cadence_hours": 6.0},
    )
    return path


class TestParallelIoPipeline:
    def test_end_to_end_structure_recovery(self, field, dataset_path):
        """Each rank reads its own rows from disk, the parallel streaming
        SVD runs, and the leading modes match the planted structures."""
        batch = 40

        def job(comm):
            dataset = SnapshotDataset.open(dataset_path)
            block = dataset.read_rows_for_rank(comm.rank, comm.size)
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0, r1=50))
            svd.initialize(block[:, :batch])
            for start in range(batch, dataset.n_snapshots, batch):
                svd.incorporate_data(block[:, start : start + batch])
            return svd.modes, svd.singular_values

        results = run_spmd(4, job)
        modes, values = results[0]

        cos_map, sin_map = field.wave_patterns()[0]
        truth = {
            "seasonal": field.seasonal_pattern().ravel(),
            "wave": np.column_stack([cos_map.ravel(), sin_map.ravel()]),
        }
        report = extract_coherent_structures(
            modes, values, ground_truth=truth, n_modes=3
        )
        assert report.dominant_structure(0)[0] == "seasonal"
        assert report.dominant_structure(0)[1] > 0.9
        assert report.dominant_structure(1)[0] == "wave"
        assert report.dominant_structure(1)[1] > 0.9

    def test_metadata_travels_with_data(self, dataset_path):
        dataset = SnapshotDataset.open(dataset_path)
        assert dataset.meta["field"] == "surface_pressure_anomaly"
        assert dataset.meta["cadence_hours"] == 6.0

    def test_parallel_read_equals_serial_read(self, field, dataset_path):
        dataset = SnapshotDataset.open(dataset_path)
        full = dataset.read()
        part = block_partition(dataset.n_dof, 3)
        blocks = [dataset.read_rows_for_rank(r, 3) for r in range(3)]
        assert np.array_equal(np.concatenate(blocks, axis=0), full)
        assert blocks[1].shape[0] == part.counts[1]

    def test_streaming_vs_oneshot_on_era5(self, field):
        """ff=1 streaming over batches ~= one-shot SVD of the whole record
        for the energetic leading modes."""
        anomalies = field.anomaly_snapshots()
        u, s, _ = np.linalg.svd(anomalies, full_matrices=False)

        from repro import ParSVDSerial

        svd = ParSVDSerial(K=4, ff=1.0)
        svd.initialize(anomalies[:, :40])
        for start in range(40, anomalies.shape[1], 40):
            svd.incorporate_data(anomalies[:, start : start + 40])

        rel = np.abs(svd.singular_values[:3] - s[:3]) / s[:3]
        assert np.max(rel) < 5e-2
        # leading mode subspace agrees
        dot = abs(svd.modes[:, 0] @ u[:, 0])
        assert dot > 0.99
