"""Integration: the public API surface as a downstream user sees it."""

import numpy as np
import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.4.0"

    def test_facade_exports(self):
        """The typed api layer is reachable from the package root."""
        for name in (
            "Session", "SessionResult", "RunConfig",
            "SolverConfig", "BackendConfig", "StreamConfig",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name), name

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_from_docstring(self):
        """The package docstring's quickstart must actually run."""
        data = np.random.default_rng(0).standard_normal((500, 60))
        svd = repro.ParSVDSerial(K=5, ff=1.0).initialize(data[:, :20])
        svd = svd.incorporate_data(data[:, 20:40]).incorporate_data(
            data[:, 40:]
        )
        assert svd.modes.shape == (500, 5)
        assert svd.singular_values.shape == (5,)

    def test_exception_hierarchy(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.ShapeError, repro.ReproError)
        assert issubclass(repro.NotInitializedError, repro.ReproError)
        assert issubclass(repro.DataFormatError, repro.ReproError)
        assert issubclass(repro.ConfigurationError, ValueError)
        assert issubclass(repro.NotInitializedError, RuntimeError)

    def test_catch_all_with_base_class(self):
        with pytest.raises(repro.ReproError):
            repro.ParSVDSerial(K=-1)
        with pytest.raises(repro.ReproError):
            repro.ParSVDSerial(K=2).incorporate_data(np.ones((3, 3)))

    def test_run_spmd_with_library_function(self):
        data = np.random.default_rng(1).standard_normal((60, 20))

        def job(comm):
            from repro.utils import block_partition

            part = block_partition(60, comm.size)
            block = data[part.slice_of(comm.rank), :]
            _, s = repro.apmos_svd(comm, block, r1=20, r2=3)  # r1=N: no local truncation
            return s

        results = repro.run_spmd(2, job)
        s_ref = np.linalg.svd(data, compute_uv=False)[:3]
        assert np.allclose(results[0], s_ref, rtol=1e-8)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.data
        import repro.perf
        import repro.postprocessing
        import repro.smpi

        assert repro.analysis.pod is not None
        assert repro.data.BurgersProblem is not None
        assert repro.perf.WeakScalingStudy is not None
        assert repro.postprocessing.format_table is not None
        assert repro.smpi.run_spmd is repro.run_spmd


class TestSubpackageExports:
    def test_perf_exports(self):
        import repro.perf as perf

        for name in perf.__all__:
            assert hasattr(perf, name), name
        assert hasattr(perf, "StrongScalingStudy")

    def test_analysis_exports(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name
        for expected in ("dmd", "spod", "distributed_pod", "pod"):
            assert hasattr(analysis, expected), expected

    def test_smpi_exports(self):
        import repro.smpi as smpi

        for name in smpi.__all__:
            assert hasattr(smpi, name), name

    def test_data_exports(self):
        import repro.data as data

        for name in data.__all__:
            assert hasattr(data, name), name

    def test_core_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name
