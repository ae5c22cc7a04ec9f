"""Property-based tests: smpi collectives against their numpy references."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.smpi import SUM, run_spmd


@settings(max_examples=20, deadline=None)
@given(
    nprocs=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    length=st.integers(1, 16),
)
def test_allreduce_sum_matches_numpy(nprocs, seed, length):
    rng = np.random.default_rng(seed)
    contributions = rng.standard_normal((nprocs, length))

    def job(comm):
        return comm.allreduce(contributions[comm.rank], SUM)

    results = run_spmd(nprocs, job)
    # deterministic rank-ordered fold
    expected = contributions[0].copy()
    for i in range(1, nprocs):
        expected = expected + contributions[i]
    for r in results:
        assert np.array_equal(r, expected)


@settings(max_examples=20, deadline=None)
@given(
    nprocs=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    root=st.data(),
)
def test_gather_then_bcast_roundtrip(nprocs, seed, root):
    root_rank = root.draw(st.integers(0, nprocs - 1))
    rng = np.random.default_rng(seed)
    payloads = [rng.standard_normal(3) for _ in range(nprocs)]

    def job(comm):
        gathered = comm.gather(payloads[comm.rank], root=root_rank)
        return comm.bcast(gathered, root=root_rank)[comm.rank]

    results = run_spmd(nprocs, job)
    for rank, r in enumerate(results):
        assert np.array_equal(r, payloads[rank])


@settings(max_examples=15, deadline=None)
@given(
    nprocs=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 5),
)
def test_gatherv_reassembles_uneven_blocks(nprocs, seed, rows):
    rng = np.random.default_rng(seed)
    counts = [int(c) for c in rng.integers(0, rows + 1, size=nprocs)]
    total = sum(counts)
    full = rng.standard_normal((total, 2))
    offsets = np.concatenate(([0], np.cumsum(counts)))

    def job(comm):
        block = full[offsets[comm.rank] : offsets[comm.rank + 1]]
        assert block.shape[0] == counts[comm.rank]
        return comm.gatherv_rows(block, root=0)

    results = run_spmd(nprocs, job)
    assert np.array_equal(results[0], full)
