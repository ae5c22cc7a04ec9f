"""The streaming step's communicator traffic, pinned per lane.

A steady streaming step moves its TSQR factors with point-to-point
``send``/``recv`` only and issues no collective.  Its record count and
bytes are what the repo benchmark reports as ``smpi.calls_per_step`` and
``smpi.bytes_per_step`` on ``stream-2rank`` (4 and 6160 at two ranks).
"""

from collections import Counter

import numpy as np
import pytest

from repro import ParSVDParallel, SolverConfig
from repro.smpi import run_spmd
from repro.utils.partition import block_partition

K, BATCH, N_DOF = 10, 5, 2048
WARMUP, STEPS = 4, 8
#: Bytes one steady step records, summed over both ends of every message,
#: by TSQR variant and rank count.  Each non-root rank sends its ``R`` up
#: (15 x 15 doubles) and gets one reply.  A leaf's reply is its correction
#: block with the combine factor folded in (15 x 10) plus the singular
#: values: 6160 bytes per leaf.  A rank that forwards to ranks it absorbed
#: gets its full-width block (15 x 15) and the combine factor (15 x 10)
#: with them: 9760 bytes.  The gather's flat tree has only leaves; in the
#: binary tree rank 2 forwards from 4 ranks on.
STEP_BYTES = {
    "gather": {2: 6160, 3: 12320, 4: 18480},
    "tree": {2: 6160, 3: 12320, 4: 22080},
}


@pytest.mark.parametrize("qr_variant", ["gather", "tree"])
@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_steady_step_census(ranks, qr_variant):
    rng = np.random.default_rng(5)
    n_batches = 1 + WARMUP + STEPS
    data = rng.standard_normal((N_DOF, BATCH * n_batches))

    def job(comm):
        rows = data[block_partition(N_DOF, comm.size).slice_of(comm.rank)]
        batches = [rows[:, j * BATCH : (j + 1) * BATCH] for j in range(n_batches)]
        solver = SolverConfig(K=K, ff=1.0, qr_variant=qr_variant)
        svd = ParSVDParallel(comm, solver=solver)
        svd.initialize(batches[0])
        for batch in batches[1 : 1 + WARMUP]:
            svd.incorporate_data(batch)
        start = len(comm.records)
        for batch in batches[1 + WARMUP :]:
            svd.incorporate_data(batch)
        return start, len(comm.records)

    windows, tracers = run_spmd(ranks, job, trace=True)
    census = [
        record
        for (start, end), tracer in zip(windows, tracers)
        for record in tracer.records[start:end]
    ]
    peers = ranks - 1
    assert Counter(r.op for r in census) == {
        "send": 2 * peers * STEPS,
        "recv": 2 * peers * STEPS,
    }
    assert sum(r.nbytes for r in census) == STEP_BYTES[qr_variant][ranks] * STEPS
