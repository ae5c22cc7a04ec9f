"""Hot-path allocation + throughput bench: fast lane, seed path, overlap.

The zero-copy / workspace-reuse PR claims the per-step *constant* of the
streaming update is allocator-free in steady state; the pipelined-engine
PR adds the overlap dimension: fused single-message TSQR replies with
preposted receives, the small-matrices-first correction fold (one tall
product per rank per step: the local QR's compact-WY reflectors, never
formed into ``Q``, applied once with one tall GEMM straight into the
local modes), and `overlap=True` deferred completion.  This
bench measures, per ``backend x rank-count x batch`` cell and per lane:

* **bytes/step** — aggregate tracemalloc peak-over-baseline per streaming
  step (all ranks; the in-process backends share one heap), and
* **steps/s** — wall-clock streaming throughput (measured untraced),

for three lanes: ``fast`` (``workspace=True``, default), ``seed``
(``workspace=False``, fresh allocations per step) and ``overlap``
(``workspace=True, overlap=True``, collectives in flight across steps),
and emits ``BENCH_hot_path.json``.  The committed copy of that file at
the repo root is the regression baseline CI compares against — both
bytes/step and the throughput *ratios* (machine-independent) are gated.
Each cell additionally carries a ``phases`` rollup (schema v1) from one
obs-traced run — informational only, never gated.

Acceptance cell: threads backend, 4 ranks, K=10, 20 streaming batches.
"""

import json
import pathlib
import time
import tracemalloc

import numpy as np

from conftest import emit
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
#: configuration from the PR issue.
CONFIGS = [
    ("threads", 4, 20),
    ("threads", 2, 10),
    ("self", 1, 20),
]

#: lane name -> (workspace, overlap)
LANES = {
    "fast": (True, False),
    "seed": (False, False),
    "overlap": (True, True),
}


def make_data(batch):
    rng = np.random.default_rng(7)
    n_cols = batch * (N_STEPS + 1)
    left = rng.standard_normal((M, 8))
    right = rng.standard_normal((8, n_cols))
    return left @ right + 1e-6 * rng.standard_normal((M, n_cols))


def lane_config(backend, nranks, workspace, overlap):
    """The typed RunConfig of one ``backend x ranks x lane`` cell."""
    return RunConfig(
        solver=SolverConfig(K=K, ff=0.95, workspace=workspace, overlap=overlap),
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


def measure_alloc_lane(data, backend, nranks, batch, workspace, overlap):
    """bytes/step for one lane (tracemalloc on, barrier-fenced steps so
    rank 0's window covers every rank's allocations — shared in-process
    heap; the barriers also serialize overlap's deferred completion into
    the measured window).  The first few steps warm the workspace/BLAS
    buffers; the steady-state tail is averaged."""
    tracemalloc.start()
    try:
        results = Session.run(
            lane_config(backend, nranks, workspace, overlap),
            streaming_job(data, batch, measure_alloc=True),
        )
    finally:
        tracemalloc.stop()
    per_step = results[0][0]
    return float(np.mean(per_step[5:])), results[0][1]


def measure_rates(data, backend, nranks, batch, reps=5):
    """steps/s per lane, no tracemalloc (it dominates otherwise).

    The lanes are timed *interleaved* — every repetition times each lane
    once, back to back — so slow machine-load drift hits all lanes
    equally and the throughput ratios the CI gate checks stay stable;
    best-of-reps per lane sheds scheduler noise.
    """
    elapsed = {lane: [] for lane in LANES}
    for _ in range(reps):
        for lane, (workspace, overlap) in LANES.items():
            start = time.perf_counter()
            Session.run(
                lane_config(backend, nranks, workspace, overlap),
                streaming_job(data, batch, measure_alloc=False),
            )
            elapsed[lane].append(time.perf_counter() - start)
    return {lane: N_STEPS / min(times) for lane, times in elapsed.items()}


def measure_phases(data, backend, nranks, batch):
    """Per-phase timing rollup of one obs-traced overlapped run.

    A separate run with :mod:`repro.obs` tracing enabled (the measured
    lanes above run with observability *off*, so the bytes/step and
    steps/s numbers are untouched).  Returns the tracer's
    ``phase_summary()`` dict: ``{phase: {count, total_s, mean_s,
    max_s}}``.
    """
    obs_runtime.reset()
    cfg = lane_config(backend, nranks, True, True).replace(
        obs=ObservabilityConfig(metrics=True, trace=True)
    )
    Session.run(cfg, streaming_job(data, batch, measure_alloc=False))
    summary = obs_runtime.default_tracer().phase_summary()
    obs_runtime.reset()
    return summary


def test_hot_path(benchmark, artifacts_dir):
    cells = []
    rows = []
    for backend, nranks, batch in CONFIGS:
        data = make_data(batch)
        lanes = {}
        values = {}
        for lane, (workspace, overlap) in LANES.items():
            lane_bytes, lane_sv = measure_alloc_lane(
                data, backend, nranks, batch, workspace, overlap
            )
            lanes[lane] = {"bytes_per_step": lane_bytes}
            values[lane] = lane_sv
        for lane, rate in measure_rates(data, backend, nranks, batch).items():
            lanes[lane]["steps_per_s"] = rate
        # Same numbers out of every lane (the equality tests pin 1e-12;
        # here it guards the bench itself against divergence).
        assert np.max(np.abs(values["fast"] - values["seed"])) <= 1e-10
        assert np.max(np.abs(values["overlap"] - values["fast"])) <= 1e-10
        reduction = lanes["seed"]["bytes_per_step"] / max(
            lanes["fast"]["bytes_per_step"], 1.0
        )
        speedup = lanes["fast"]["steps_per_s"] / lanes["seed"]["steps_per_s"]
        overlap_speedup = (
            lanes["overlap"]["steps_per_s"] / lanes["fast"]["steps_per_s"]
        )
        cells.append(
            {
                "backend": backend,
                "nranks": nranks,
                "K": K,
                "batch": batch,
                "n_steps": N_STEPS,
                "n_dof": M,
                "fast": lanes["fast"],
                "seed": lanes["seed"],
                "overlap": lanes["overlap"],
                "bytes_reduction": reduction,
                "speedup": speedup,
                "overlap_speedup": overlap_speedup,
                # Additive (schema v1): per-phase wall-clock breakdown of
                # one traced overlapped run; the baseline gate ignores it.
                "phase_timing_schema": 1,
                "phases": measure_phases(data, backend, nranks, batch),
            }
        )
        rows.append(
            [
                f"{backend} x{nranks} b{batch}",
                f"{lanes['fast']['bytes_per_step'] / 1024:.0f} KiB",
                f"{lanes['seed']['bytes_per_step'] / 1024:.0f} KiB",
                f"{reduction:.1f}x",
                f"{lanes['fast']['steps_per_s']:.1f}",
                f"{lanes['seed']['steps_per_s']:.1f}",
                f"{lanes['overlap']['steps_per_s']:.1f}",
                f"{overlap_speedup:.2f}x",
            ]
        )

    payload = {"bench": "hot_path", "n_dof": M, "K": K, "cells": cells}
    (artifacts_dir / "BENCH_hot_path.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(
        artifacts_dir,
        "hot_path.txt",
        f"Streaming hot path: fast lane vs seed path vs overlapped engine "
        f"(n_dof={M}, K={K}, {N_STEPS} steps)\n"
        + format_table(
            [
                "config",
                "fast B/step",
                "seed B/step",
                "reduction",
                "fast steps/s",
                "seed steps/s",
                "overlap steps/s",
                "overlap-vs-fast",
            ],
            rows,
        ),
    )

    # Acceptance cell (threads, 4 ranks, K=10, 20 batches): the fast lane
    # must allocate at least 2x less per step than the seed path, and the
    # overlapped lane must not allocate meaningfully more than the fast
    # lane (its replies are smaller; preposted requests are tiny).  The
    # wall-clock asserts are only catastrophic-regression canaries because
    # a shared CI box jitters +-20%; the precise numbers live in the JSON
    # and are gated against the committed baseline by check_against_baseline.
    acceptance = cells[0]
    assert acceptance["bytes_reduction"] >= 2.0
    assert acceptance["speedup"] > 0.75
    assert acceptance["overlap_speedup"] > 0.75
    assert (
        acceptance["overlap"]["bytes_per_step"]
        <= 1.5 * acceptance["fast"]["bytes_per_step"] + 65536
    )

    # Timed kernel for pytest-benchmark: one steady-state overlapped stream.
    data = make_data(CONFIGS[0][2])
    benchmark(
        lambda: Session.run(
            lane_config(CONFIGS[0][0], CONFIGS[0][1], True, True),
            streaming_job(data, CONFIGS[0][2], measure_alloc=False),
        )
    )


def check_against_baseline(artifact_path, baseline_path, tolerance=0.25):
    """Fail (exit 1) on hot-path regressions vs the committed baseline.

    Gated on the acceptance cell (threads, 4 ranks, K=10):

    * ``fast`` bytes/step must stay within ``tolerance`` (+25%) of the
      baseline — allocation counts are machine-independent;
    * throughput must not regress.  Raw steps/s are not comparable
      across machines, so the gate checks the *ratios* measured within
      one (lane-interleaved) bench run against the baseline's:
      ``overlap_speedup`` (overlap vs fast — the pipelined engine's
      steps/s) at the issue's 15% floor, and ``speedup`` (fast vs seed)
      at a wider 25% floor — that ratio is only ~1.1x to begin with, so
      15% of it sits inside a shared box's wall-clock jitter.
    """
    artifact = json.loads(pathlib.Path(artifact_path).read_text())
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    cell = artifact["cells"][0]
    base = baseline["cells"][0]
    failures = []

    measured = cell["fast"]["bytes_per_step"]
    allowed = base["fast"]["bytes_per_step"] * (1 + tolerance)
    print(
        f"hot-path bytes/step: measured {measured:.0f}, "
        f"baseline allows <= {allowed:.0f}"
    )
    if measured > allowed:
        failures.append(
            f"allocation regression: {measured:.0f} B/step exceeds "
            f"baseline {allowed:.0f} B/step (+{tolerance:.0%})"
        )

    for ratio, steps_tolerance in (("overlap_speedup", 0.15), ("speedup", 0.25)):
        measured_ratio = cell[ratio]
        floor = base[ratio] * (1 - steps_tolerance)
        print(
            f"hot-path {ratio}: measured {measured_ratio:.3f}, "
            f"baseline requires >= {floor:.3f}"
        )
        if measured_ratio < floor:
            failures.append(
                f"steps/s regression: {ratio} {measured_ratio:.3f} fell "
                f">{steps_tolerance:.0%} below baseline {base[ratio]:.3f}"
            )

    if failures:
        raise SystemExit("hot-path regression gate: " + "; ".join(failures))


if __name__ == "__main__":
    import sys

    check_against_baseline(*sys.argv[1:])
