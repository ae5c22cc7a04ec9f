"""Ablation A8: flat vs two-level (hierarchical) APMOS.

The weak-scaling reproduction (F1c) shows the flat gather + widening root
SVD bending the curve at high rank counts.  APMOS with a ``group_size``
(``apmos_svd(..., group_size=g)``, ``1 < g < p``) reduces within groups
first, shrinking both terms.  This bench (a) verifies the grouped gather
is numerically faithful on real runs, with measured root traffic: rank
0's gather bytes, its group's gather and the leaders' gather both
counted, must be nonzero and below the single gather's, and (b) extends
the calibrated scaling model to predict the efficiency recovered at the
paper's largest scale.
"""

import numpy as np

from conftest import emit
from repro.core.apmos import apmos_svd
from repro.data.burgers import BurgersProblem
from repro.perf.machine import THETA_KNL
from repro.perf.scaling import WeakScalingStudy
from repro.postprocessing.plots import save_series_csv
from repro.postprocessing.report import format_table
from repro.smpi import run_spmd
from repro.utils.partition import block_partition

NX, NT, R1, R2 = 1024, 200, 40, 5
NRANKS, GROUP = 8, 4


def run_two_level(data):
    def job(comm):
        part = block_partition(NX, comm.size)
        block = data[part.slice_of(comm.rank), :]
        return apmos_svd(comm, block, r1=R1, r2=R2, group_size=GROUP)

    return run_spmd(NRANKS, job, trace=True)


def test_hierarchical_apmos(benchmark, artifacts_dir):
    data = BurgersProblem(nx=NX, nt=NT).snapshot_matrix()

    # numerical fidelity + measured traffic on real runs
    def flat_job(comm):
        part = block_partition(NX, comm.size)
        block = data[part.slice_of(comm.rank), :]
        return apmos_svd(comm, block, r1=R1, r2=R2)

    flat_results, flat_tracers = run_spmd(NRANKS, flat_job, trace=True)
    two_results, two_tracers = benchmark(run_two_level, data)

    s_flat = flat_results[0][1]
    s_two = two_results[0][1]
    fidelity = float(np.max(np.abs(s_flat - s_two) / s_flat))
    flat_root_bytes = flat_tracers[0].bytes_for("gather")
    two_root_bytes = two_tracers[0].bytes_for("gather")

    # model extension at the paper's scale
    study = WeakScalingStudy(
        n_snapshots=800, k=10, r1=50, machine=THETA_KNL, calibrate=True, seed=0
    )
    counts = study.paper_rank_counts(max_nodes=256)
    flat_curve = study.run(counts)
    hier_curve = study.run(counts, group_size=64)

    save_series_csv(
        artifacts_dir / "hierarchical_apmos.csv",
        {
            "ranks": flat_curve.ranks.astype(float),
            "flat_time_s": flat_curve.times,
            "two_level_time_s": hier_curve.times,
            "flat_efficiency": flat_curve.efficiency,
            "two_level_efficiency": hier_curve.efficiency,
        },
    )
    rows = [
        [p, tf, ef, th, eh]
        for p, tf, ef, th, eh in zip(
            counts,
            flat_curve.times,
            flat_curve.efficiency,
            hier_curve.times,
            hier_curve.efficiency,
        )
    ]
    emit(
        artifacts_dir,
        "hierarchical_apmos.txt",
        "Ablation A8: flat vs two-level APMOS\n"
        f"  live run ({NRANKS} ranks, groups of {GROUP}): "
        f"max rel sigma diff = {fidelity:.2e}; "
        f"root gather bytes {flat_root_bytes} -> {two_root_bytes}\n"
        "  modelled weak scaling (Theta-KNL, groups of 64):\n"
        + format_table(
            ["ranks", "flat_s", "flat_eff", "2level_s", "2level_eff"], rows
        ),
    )

    # shapes: faithful numerics, reduced root traffic, recovered efficiency
    assert fidelity < 1e-8
    assert 0 < two_root_bytes < flat_root_bytes
    assert hier_curve.efficiency[-1] > 2 * flat_curve.efficiency[-1]
