"""Frozen streaming-step outputs, and the script that regenerates them.

``step_references.npz`` holds the final global modes and singular values
of one 60-step stream through :class:`ParSVDParallel`, for the ``self``
backend at 1 rank and the ``threads`` backend at 2, 3 and 4 ranks, the
gather and tree TSQR variants, and float64 and float32.  They were
produced by the step kernel that formed each rank's local ``Q``
explicitly (``?geqrf`` + ``?orgqr``, sign flips, one tall GEMM).  That
kernel gave bit-identical outputs over all four lanes it then had (a
deferred-completion schedule on and off, times a fresh-arrays lane; all
since deleted), so one array per world, variant and dtype is the
reference of the one lane that remains, and ``test_step_references.py``
checks it for any later kernel.

The stream is exactly rank 10 with singular values geometric from 100
to 1, so every retained mode (``K = 8``) is separated from its
neighbours by a gap and the outputs are well-determined to round-off.

Regenerate only when the reference itself must change::

    PYTHONPATH=src python tests/core/step_references.py
"""

from __future__ import annotations

import itertools
import pathlib

import numpy as np

from repro import ParSVDParallel, SolverConfig
from repro.smpi import create_communicator, run_spmd
from repro.utils.partition import block_partition

M, K, BATCH, STEPS = 48, 8, 4, 60
PATH = pathlib.Path(__file__).with_suffix(".npz")

#: (backend, ranks) pairs; ``self`` is the single-rank backend.
WORLDS = (("self", 1), ("threads", 2), ("threads", 3), ("threads", 4))
DTYPES = {"float64": np.float64, "float32": np.float32}
CONFIGS = [
    (backend, ranks, variant, dtype)
    for (backend, ranks), variant, dtype in itertools.product(
        WORLDS, ("gather", "tree"), DTYPES
    )
]


def reference_key(backend, ranks, variant, dtype) -> str:
    """The stored array a lane is checked against (also its test id)."""
    return f"{backend}{ranks}-{variant}-{dtype}"


def stream_data() -> np.ndarray:
    """``(M, BATCH * (STEPS + 1))`` rank-10 matrix, sigma 100 ... 1."""
    rng = np.random.default_rng(20240917)
    u, _ = np.linalg.qr(rng.standard_normal((M, 10)))
    v, _ = np.linalg.qr(rng.standard_normal((BATCH * (STEPS + 1), 10)))
    return (u * np.geomspace(100.0, 1.0, 10)) @ v.T


def run(backend, ranks, variant, dtype):
    """Stream :func:`stream_data` through one lane; returns rank 0's
    ``(modes, singular_values)``."""
    data = stream_data().astype(DTYPES[dtype])
    solver = SolverConfig(K=K, ff=1.0, qr_variant=variant)

    def job(comm):
        block = data[block_partition(M, comm.size).slice_of(comm.rank)]
        svd = ParSVDParallel(comm, solver=solver)
        svd.initialize(block[:, :BATCH])
        for step in range(1, STEPS + 1):
            svd.incorporate_data(block[:, step * BATCH : (step + 1) * BATCH])
        return np.array(svd.modes), np.array(svd.singular_values)

    if backend == "self":
        return job(create_communicator("self"))
    return run_spmd(ranks, job)[0]


def main() -> None:
    arrays = {}
    for config in CONFIGS:
        key = reference_key(*config)
        arrays[f"{key}/modes"], arrays[f"{key}/values"] = run(*config)
    np.savez_compressed(PATH, **arrays)
    print(f"wrote {len(arrays) // 2} references for {len(CONFIGS)} lanes to {PATH}")


if __name__ == "__main__":
    main()
