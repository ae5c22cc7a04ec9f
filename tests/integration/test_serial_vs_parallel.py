"""Integration: serial vs parallel equivalence on the paper's Burgers case.

This is the test-suite version of Figure 1(a)/(b): the parallel+randomized
deployment must agree with the serial evaluation on the leading modes.
"""

import numpy as np
import pytest

from repro import ParSVDParallel, ParSVDSerial, SolverConfig, compare_modes
from repro.data.burgers import BurgersProblem
from repro.smpi import run_spmd
from repro.utils.partition import block_partition

# scaled-down paper setup (nx=16384, nt=800 in the paper)
NX, NT, K, BATCH = 1024, 200, 10, 50


@pytest.fixture(scope="module")
def burgers_data():
    return BurgersProblem(nx=NX, nt=NT).snapshot_matrix()


@pytest.fixture(scope="module")
def serial_result(burgers_data):
    svd = ParSVDSerial(K=K, ff=0.95)
    svd.initialize(burgers_data[:, :BATCH])
    for start in range(BATCH, NT, BATCH):
        svd.incorporate_data(burgers_data[:, start : start + BATCH])
    return svd


def _parallel_modes(data, nranks, **kwargs):
    def job(comm):
        part = block_partition(data.shape[0], comm.size)
        block = data[part.slice_of(comm.rank), :]
        svd = ParSVDParallel(comm, solver=SolverConfig(K=K, ff=0.95, **kwargs))
        svd.initialize(block[:, :BATCH])
        for start in range(BATCH, NT, BATCH):
            svd.incorporate_data(block[:, start : start + BATCH])
        return svd.modes, svd.singular_values

    results = run_spmd(nranks, job)
    return results[0]


class TestFigure1Equivalence:
    def test_four_ranks_deterministic(self, burgers_data, serial_result):
        """4 ranks (the paper's validation setup), dense inner SVDs."""
        modes, values = _parallel_modes(burgers_data, 4, r1=50)
        comparison = compare_modes(
            serial_result.modes,
            serial_result.singular_values,
            modes,
            values,
            n_modes=2,  # the two modes the paper plots
        )
        assert comparison.worst_mode_error < 1e-4
        assert comparison.worst_spectrum_error < 1e-6

    def test_four_ranks_randomized(self, burgers_data, serial_result):
        """4 ranks with randomization on (the paper's actual deployment)."""
        modes, values = _parallel_modes(
            burgers_data, 4, r1=50,
            low_rank=True, oversampling=10, power_iters=2, seed=0,
        )
        comparison = compare_modes(
            serial_result.modes,
            serial_result.singular_values,
            modes,
            values,
            n_modes=2,
        )
        assert comparison.worst_mode_error < 1e-3
        assert comparison.worst_spectrum_error < 1e-4

    @pytest.mark.parametrize("nranks", [2, 3])
    def test_rank_count_invariance(self, burgers_data, nranks):
        """The parallel result must not depend on the rank count."""
        ref_modes, ref_values = _parallel_modes(burgers_data, 1, r1=50)
        modes, values = _parallel_modes(burgers_data, nranks, r1=50)
        comparison = compare_modes(
            ref_modes, ref_values, modes, values, n_modes=3
        )
        assert comparison.worst_mode_error < 1e-5
        assert comparison.worst_spectrum_error < 1e-7

    def test_singular_values_capture_burgers_energy(self, serial_result):
        values = serial_result.singular_values
        # spectrum decays: mode 1 carries much more than mode 10
        assert values[0] / values[-1] > 10
