"""Tracer coverage for the extended operations (scan family, probes)."""

import numpy as np

from repro.smpi import SUM, run_spmd


class TestScanFamilyTracing:
    def test_scan_recorded(self):
        def job(comm):
            comm.scan(np.zeros(4), SUM)  # 32 bytes up + 32 down
            return None

        _, tracers = run_spmd(3, job, trace=True)
        for t in tracers:
            assert t.bytes_for("scan") == 64

    def test_exscan_recorded(self):
        def job(comm):
            comm.exscan(np.zeros(2), SUM)
            return None

        _, tracers = run_spmd(2, job, trace=True)
        # rank 0 receives None (0 bytes), rank 1 receives 16 bytes
        assert tracers[0].bytes_for("exscan") == 16
        assert tracers[1].bytes_for("exscan") == 32

    def test_reduce_scatter_recorded(self):
        def job(comm):
            comm.reduce_scatter([np.zeros(1)] * comm.size, SUM)
            return None

        _, tracers = run_spmd(3, job, trace=True)
        for t in tracers:
            # sends 2 blocks of 8, receives the reduced 8-byte block
            assert t.bytes_for("reduce_scatter") == 24

    def test_iprobe_not_recorded(self):
        def job(comm):
            comm.iprobe()
            return None

        _, tracers = run_spmd(2, job, trace=True)
        for t in tracers:
            assert t.summary().events == 0

    def test_results_correct_through_tracer(self):
        def job(comm):
            return comm.scan(comm.rank + 1, SUM)

        results, _ = run_spmd(3, job, trace=True)
        assert results == [1, 3, 6]

