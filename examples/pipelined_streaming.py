#!/usr/bin/env python
"""Pipelined streaming: out-of-core ingestion overlapped with compute.

Two stages of the stream run concurrently here:

1. a ``PrefetchStream`` background thread reads the *next* batch from an
   on-disk snapshot container (out-of-core ingestion);
2. each rank's ``incorporate_data`` factors the current batch (local QR,
   point-to-point TSQR exchange, small SVD, one tall apply).

The numbers are identical to the plain blocking loop without prefetch —
asserted below to 1e-12 — only the schedule changes.

Run:  python examples/pipelined_streaming.py
"""

import tempfile
import time

import numpy as np

from repro.api import BackendConfig, RunConfig, Session, SolverConfig, StreamConfig
from repro.data import write_snapshot_dataset

M, NT, K, BATCH, RANKS = 2048, 240, 8, 24, 4


def make_dataset(path):
    rng = np.random.default_rng(42)
    left = rng.standard_normal((M, 6))
    right = rng.standard_normal((6, NT))
    data = left @ right + 1e-3 * rng.standard_normal((M, NT))
    write_snapshot_dataset(path, data)
    return path


def stream_svd(dataset_path, *, prefetch):
    """Fit the distributed streaming SVD from the on-disk container.

    The whole pipeline — out-of-core source, per-rank row restriction,
    background prefetch of depth ``prefetch`` — is declared in the
    RunConfig; the Session wires it."""
    cfg = RunConfig(
        solver=SolverConfig(K=K, ff=1.0),
        backend=BackendConfig(name="threads", size=RANKS),
        stream=StreamConfig(
            source=str(dataset_path), batch=BATCH, prefetch=prefetch
        ),
    )

    def job(session: Session):
        res = session.fit_stream().result()
        return np.array(res.modes), np.array(res.singular_values)

    start = time.perf_counter()
    modes, values = Session.run(cfg, job)[0]
    return modes, values, time.perf_counter() - start


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-pipeline-") as tmp:
        path = make_dataset(f"{tmp}/snapshots.npz")
        print(
            f"streaming {NT} snapshots of {M} dofs from disk "
            f"({RANKS} ranks, K={K}, batches of {BATCH})"
        )
        m_ref, v_ref, t_ref = stream_svd(path, prefetch=0)
        m_pipe, v_pipe, t_pipe = stream_svd(path, prefetch=2)

        dm = float(np.max(np.abs(m_ref - m_pipe)))
        dv = float(np.max(np.abs(v_ref - v_pipe)))
        assert dm <= 1e-12 and dv <= 1e-12, (dm, dv)
        print(f"blocking loop  : {t_ref:6.2f} s")
        print(f"prefetch loop  : {t_pipe:6.2f} s")
        print(
            f"pipelined result matches blocking to "
            f"max|dU|={dm:.1e}, max|dS|={dv:.1e}"
        )
        print(f"leading singular values: {np.round(v_pipe[:4], 3)}")


if __name__ == "__main__":
    main()
