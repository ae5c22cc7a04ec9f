"""Hot-path allocation + throughput bench: the streaming step against a
serial yardstick.

The streaming update is allocator-free in steady state: each driver owns
one workspace that holds the step's input (factored in place by the
local QR, whose compact-WY reflectors are never formed into ``Q`` but
applied once with one tall GEMM straight into the double-buffered local
modes) and its ``R`` stacks.  The step moves its factors in fused
single-message TSQR replies with preposted receives and folds the
truncation into the correction small-matrices-first.  This bench
measures, per ``backend x rank-count x batch`` cell and per lane:

* **bytes/step** — aggregate tracemalloc peak-over-baseline per streaming
  step (all ranks; the in-process backends share one heap), and
* **steps/s** — wall-clock streaming throughput (measured untraced),

for two lanes: ``fast`` (the streaming step) and ``serial``
(:class:`~repro.core.serial.ParSVDSerial`, the explicit-``Q`` kernel,
streaming the same matrix in one process), and emits
``BENCH_hot_path.json``.  The serial lane is the yardstick that turns the
fast lane's throughput into a ratio measured within one run
(``serial_speedup``).  The committed copy of that file at the repo root
is the regression baseline CI compares against — bytes/step and the
throughput *ratio* (machine-independent) are gated.  Each cell
additionally carries a ``phases`` rollup (schema v1) from one obs-traced
run — informational only, never gated.

Pin BLAS to one thread when running it (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1, as CI and
``benchmarks/suite/run.py`` do): the serial lane's GEMMs otherwise use
however many cores the host has, and the ratio stops meaning anything.

Acceptance cell: threads backend, 4 ranks, K=10, 20 streaming batches.
"""

import json
import pathlib
import statistics
import time
import tracemalloc

import numpy as np

from conftest import emit
from repro import ParSVDSerial
from repro.api import (
    BackendConfig,
    ObservabilityConfig,
    RunConfig,
    Session,
    SolverConfig,
)
from repro.obs import runtime as obs_runtime
from repro.postprocessing.report import format_table
from repro.utils.partition import block_partition

M = 4096
K = 10
N_STEPS = 20

#: backend x rank-count x batch sweep; the first cell is the acceptance
#: configuration.
CONFIGS = [
    ("threads", 4, 20),
    ("threads", 2, 10),
    ("self", 1, 20),
]

#: The cells the baseline gate checks: the acceptance cell, and the
#: single-rank cell, where no communication hides a kernel change.
GATED = [CONFIGS[0], CONFIGS[2]]

LANES = ("fast", "serial")


def make_data(batch):
    rng = np.random.default_rng(7)
    n_cols = batch * (N_STEPS + 1)
    left = rng.standard_normal((M, 8))
    right = rng.standard_normal((8, n_cols))
    return left @ right + 1e-6 * rng.standard_normal((M, n_cols))


def lane_config(backend, nranks):
    """The typed RunConfig of one ``backend x ranks`` cell."""
    return RunConfig(
        solver=SolverConfig(K=K, ff=0.95),
        backend=BackendConfig(name=backend, size=nranks),
    )


def streaming_job(data, batch, measure_alloc):
    """Per-rank session job streaming N_STEPS batches; rank 0 optionally
    samples tracemalloc around each (barrier-fenced) step."""

    def job(session):
        comm = session.comm
        part = block_partition(M, comm.size)
        block = np.ascontiguousarray(data[part.slice_of(comm.rank), :])
        session.initialize(block[:, :batch])
        per_step = []
        for step in range(N_STEPS):
            lo = (step + 1) * batch
            if measure_alloc:
                comm.barrier()
                if comm.rank == 0:
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                comm.barrier()
            session.incorporate_data(block[:, lo : lo + batch])
            if measure_alloc:
                comm.barrier()
                if comm.rank == 0:
                    _, peak = tracemalloc.get_traced_memory()
                    per_step.append(peak - before)
        return per_step, np.array(session.singular_values)

    return job


def serial_stream(data, batch, measure_alloc):
    """The serial lane: the same stream through ParSVDSerial in this
    process; tracemalloc optionally samples each step."""
    svd = ParSVDSerial(K=K, ff=0.95)
    svd.initialize(data[:, :batch])
    per_step = []
    for step in range(N_STEPS):
        lo = (step + 1) * batch
        if measure_alloc:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
        svd.incorporate_data(data[:, lo : lo + batch])
        if measure_alloc:
            per_step.append(tracemalloc.get_traced_memory()[1] - before)
    return per_step, np.array(svd.singular_values)


def run_lane(lane, data, backend, nranks, batch, measure_alloc):
    """One run of ``lane`` over the cell's stream: ``(per_step bytes,
    singular values)``."""
    if lane == "serial":
        return serial_stream(data, batch, measure_alloc)
    results = Session.run(
        lane_config(backend, nranks),
        streaming_job(data, batch, measure_alloc),
    )
    return results[0]


def measure_alloc_lane(lane, data, backend, nranks, batch):
    """bytes/step for one lane (tracemalloc on, barrier-fenced steps so
    rank 0's window covers every rank's allocations — shared in-process
    heap).  The first few steps warm the workspace/BLAS
    buffers; the steady-state tail is averaged."""
    tracemalloc.start()
    try:
        per_step, values = run_lane(
            lane, data, backend, nranks, batch, measure_alloc=True
        )
    finally:
        tracemalloc.stop()
    return float(np.mean(per_step[5:])), values


def measure_rates(data, backend, nranks, batch, reps=9):
    """steps/s per lane and the gated ratio, no tracemalloc (it
    dominates otherwise).

    The lanes are timed *interleaved* — every repetition times each lane
    once, back to back — so slow machine-load drift hits both lanes
    equally.  Each repetition gives one ``serial_speedup`` (fast vs
    serial) sample, and the ratio the CI gate checks is the median of
    those samples: one descheduled lane run moves a median by at most
    one rank, where a ratio of best-of-reps divides two independent
    extremes.  The per-lane steps/s are medians too.
    """
    elapsed = {lane: [] for lane in LANES}
    for _ in range(reps):
        for lane in elapsed:
            start = time.perf_counter()
            run_lane(lane, data, backend, nranks, batch, measure_alloc=False)
            elapsed[lane].append(time.perf_counter() - start)
    rates = {
        lane: N_STEPS / statistics.median(times) for lane, times in elapsed.items()
    }
    serial_speedup = statistics.median(
        s / f for f, s in zip(elapsed["fast"], elapsed["serial"])
    )
    return rates, serial_speedup


def measure_phases(data, backend, nranks, batch):
    """Per-phase timing rollup of one obs-traced streaming run.

    A separate run with :mod:`repro.obs` tracing enabled (the measured
    lanes above run with observability *off*, so the bytes/step and
    steps/s numbers are untouched).  Returns the tracer's
    ``phase_summary()`` dict: ``{phase: {count, total_s, mean_s,
    max_s}}``.
    """
    obs_runtime.reset()
    cfg = lane_config(backend, nranks).replace(
        obs=ObservabilityConfig(metrics=True, trace=True)
    )
    Session.run(cfg, streaming_job(data, batch, measure_alloc=False))
    summary = obs_runtime.default_tracer().phase_summary()
    obs_runtime.reset()
    return summary


def block_bytes(batch):
    """Bytes of one ``(M, K + batch)`` float64 block: what an
    allocate-per-step kernel creates several of each step."""
    return M * (K + batch) * 8


def test_hot_path(benchmark, artifacts_dir):
    cells = []
    rows = []
    for backend, nranks, batch in CONFIGS:
        data = make_data(batch)
        lanes = {}
        values = {}
        for lane in LANES:
            lane_bytes, values[lane] = measure_alloc_lane(
                lane, data, backend, nranks, batch
            )
            lanes[lane] = {"bytes_per_step": lane_bytes}
        rates, serial_speedup = measure_rates(data, backend, nranks, batch)
        for lane, rate in rates.items():
            lanes[lane]["steps_per_s"] = rate
        # Same numbers out of both lanes (the test suite pins the serial
        # agreement; here it guards the bench against divergence).  The
        # data is rank 8 plus 1e-6 noise, so only the leading 8 values
        # are determined well enough to compare across the two
        # algorithms.
        assert np.allclose(values["serial"][:8], values["fast"][:8], rtol=1e-8)
        cells.append(
            {
                "backend": backend,
                "nranks": nranks,
                "K": K,
                "batch": batch,
                "n_steps": N_STEPS,
                "n_dof": M,
                "fast": lanes["fast"],
                "serial": lanes["serial"],
                "serial_speedup": serial_speedup,
                # Additive (schema v1): per-phase wall-clock breakdown of
                # one traced streaming run; the baseline gate ignores it.
                "phase_timing_schema": 1,
                "phases": measure_phases(data, backend, nranks, batch),
            }
        )
        rows.append(
            [
                f"{backend} x{nranks} b{batch}",
                f"{lanes['fast']['bytes_per_step'] / 1024:.0f} KiB",
                f"{lanes['serial']['bytes_per_step'] / 1024:.0f} KiB",
                f"{lanes['fast']['steps_per_s']:.1f}",
                f"{lanes['serial']['steps_per_s']:.1f}",
                f"{serial_speedup:.2f}x",
            ]
        )

    payload = {"bench": "hot_path", "n_dof": M, "K": K, "cells": cells}
    (artifacts_dir / "BENCH_hot_path.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(
        artifacts_dir,
        "hot_path.txt",
        f"Streaming hot path: the streaming step vs the serial "
        f"yardstick (n_dof={M}, K={K}, {N_STEPS} steps)\n"
        + format_table(
            [
                "config",
                "fast B/step",
                "serial B/step",
                "fast steps/s",
                "serial steps/s",
                "fast-vs-serial",
            ],
            rows,
        ),
    )

    # Every cell: the fast lane must allocate less than half of one
    # (M, K + batch) float64 block per step (an allocate-per-step kernel
    # creates several).  The wall-clock assert is only a
    # catastrophic-regression canary because a shared CI box jitters
    # +-20%; the precise numbers live in the JSON and are gated against
    # the committed baseline by check_against_baseline.
    for cell in cells:
        assert cell["fast"]["bytes_per_step"] < 0.5 * block_bytes(cell["batch"])
    assert cells[0]["serial_speedup"] > 0.5

    # Timed kernel for pytest-benchmark: one steady-state stream.
    data = make_data(CONFIGS[0][2])
    benchmark(
        lambda: Session.run(
            lane_config(CONFIGS[0][0], CONFIGS[0][1]),
            streaming_job(data, CONFIGS[0][2], measure_alloc=False),
        )
    )


def check_against_baseline(artifact_path, baseline_path, tolerance=0.25):
    """Fail (exit 1) on hot-path regressions vs the committed baseline.

    Gated on the acceptance cell (threads, 4 ranks, K=10) and the
    single-rank ``self`` cell:

    * ``fast`` bytes/step must stay within ``tolerance`` (+25%) of the
      baseline — allocation counts are machine-independent;
    * throughput must not regress.  Raw steps/s are not comparable
      across machines, so the gate checks the *ratio* measured within
      one (lane-interleaved) bench run — the median of its
      per-repetition samples — against the baseline's:
      ``serial_speedup`` (fast vs the serial explicit-``Q`` yardstick —
      a slower streaming step shows here) at a 25% floor, wide because
      it compares two different programs and moves with the host.
    """
    artifact = json.loads(pathlib.Path(artifact_path).read_text())
    baseline = json.loads(pathlib.Path(baseline_path).read_text())

    def by_cell(payload):
        return {
            (c["backend"], c["nranks"], c["batch"]): c for c in payload["cells"]
        }

    measured_cells, base_cells = by_cell(artifact), by_cell(baseline)
    steps_tolerance = 0.25
    failures = []
    for key in GATED:
        cell, base = measured_cells[key], base_cells[key]
        label = "{} x{} b{}".format(*key)

        measured = cell["fast"]["bytes_per_step"]
        allowed = base["fast"]["bytes_per_step"] * (1 + tolerance)
        print(
            f"hot-path {label} bytes/step: measured {measured:.0f}, "
            f"baseline allows <= {allowed:.0f}"
        )
        if measured > allowed:
            failures.append(
                f"{label} allocation regression: {measured:.0f} B/step "
                f"exceeds baseline {allowed:.0f} B/step (+{tolerance:.0%})"
            )

        measured_ratio = cell["serial_speedup"]
        floor = base["serial_speedup"] * (1 - steps_tolerance)
        print(
            f"hot-path {label} serial_speedup: measured "
            f"{measured_ratio:.3f}, baseline requires >= {floor:.3f}"
        )
        if measured_ratio < floor:
            failures.append(
                f"{label} steps/s regression: serial_speedup "
                f"{measured_ratio:.3f} fell >{steps_tolerance:.0%} below "
                f"baseline {base['serial_speedup']:.3f}"
            )

    if failures:
        raise SystemExit("hot-path regression gate: " + "; ".join(failures))


if __name__ == "__main__":
    import sys

    check_against_baseline(*sys.argv[1:])
