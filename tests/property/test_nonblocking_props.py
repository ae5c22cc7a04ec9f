"""Property-based tests: nonblocking collectives and prefetched streams.

Covers the pipelined-engine contracts:

* nonblocking collectives complete correctly regardless of the order their
  requests are waited in (requests posted in the same program order on
  every rank, completed in arbitrary per-rank order);
* ``waitall`` is idempotent — repeated completion returns the same cached
  results without re-communicating;
* ``PrefetchStream`` yields exactly the wrapped stream's batches, in
  order, across backend x dtype when driving the distributed SVD.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ParSVDParallel, SolverConfig
from repro.data import PrefetchStream, array_stream
from repro.smpi import SUM, run_backend, run_spmd, waitall
from repro.utils.partition import block_partition


@settings(max_examples=15, deadline=None)
@given(
    nprocs=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    reverse=st.booleans(),
)
def test_completion_order_independence(nprocs, seed, reverse):
    """ibcast / iallreduce / igatherv_rows posted in order, completed in
    forward or reverse order, still produce the blocking results."""
    rng = np.random.default_rng(seed)
    payload = rng.standard_normal(5)
    contributions = rng.standard_normal((nprocs, 4))
    rows = [rng.standard_normal((r + 1, 3)) for r in range(nprocs)]
    stacked = np.concatenate(rows, axis=0)

    def job(comm):
        requests = [
            comm.ibcast(payload if comm.rank == 0 else None, root=0),
            comm.iallreduce(contributions[comm.rank], SUM),
            comm.igatherv_rows(rows[comm.rank], root=0),
        ]
        ordered = list(reversed(requests)) if reverse else list(requests)
        for request in ordered:
            request.wait()
        # Reading results again (post-completion) must be free and stable.
        bcast_v = requests[0].wait()
        reduced = requests[1].wait()
        gathered = requests[2].wait()
        return bcast_v, reduced, gathered

    expected = contributions[0].copy()
    for i in range(1, nprocs):
        expected = expected + contributions[i]
    for rank, (bcast_v, reduced, gathered) in enumerate(run_spmd(nprocs, job)):
        assert np.array_equal(bcast_v, payload)
        assert np.array_equal(reduced, expected)
        if rank == 0:
            assert np.array_equal(gathered, stacked)
        else:
            assert gathered is None


@settings(max_examples=15, deadline=None)
@given(nprocs=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
def test_waitall_idempotent(nprocs, seed):
    """waitall twice (and mixed with individual waits) returns identical
    results — completion is cached, never re-communicated."""
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 100, size=(nprocs, nprocs))

    def job(comm):
        requests = [
            comm.ialltoall([int(x) for x in table[comm.rank]]),
            comm.iallreduce(float(comm.rank), SUM),
        ]
        first = waitall(requests)
        second = waitall(requests)
        third = [requests[0].wait(), requests[1].wait()]
        assert first == second == third
        return first

    results = run_spmd(nprocs, job)
    expected_sum = float(sum(range(nprocs)))
    for rank, (received, reduced) in enumerate(results):
        assert received == [int(x) for x in table[:, rank]]
        assert reduced == expected_sum


@settings(max_examples=15, deadline=None)
@given(
    nprocs=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    length=st.integers(1, 8),
)
def test_allreduce_out_matches_allocating_fold(nprocs, seed, length):
    """allreduce(out=) fills the caller's buffer with exactly the
    allocating fold's numbers, on every rank."""
    rng = np.random.default_rng(seed)
    contributions = rng.standard_normal((nprocs, length))

    def job(comm):
        plain = comm.allreduce(contributions[comm.rank], SUM)
        out = np.empty(length)
        filled = comm.allreduce(contributions[comm.rank], SUM, out=out)
        assert filled is out
        return np.asarray(plain), out

    for plain, filled in run_spmd(nprocs, job):
        assert np.array_equal(plain, filled)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 7),
    n_batches=st.integers(1, 6),
    depth=st.integers(1, 3),
)
def test_prefetch_yields_wrapped_batches_in_order(
    seed, batch, n_batches, depth
):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((5, batch * n_batches))
    base = array_stream(data, batch)
    direct = list(base)
    prefetched = list(PrefetchStream(base, depth=depth))
    assert len(direct) == len(prefetched)
    for a, b in zip(direct, prefetched):
        assert np.array_equal(a, b)


def test_prefetch_snapshots_reused_source_buffers():
    """An in-situ source may reuse one buffer per batch; the prefetch
    producer must snapshot before queueing or the consumer reads
    overwritten data."""
    from repro.data import function_stream

    scratch = np.empty((3, 2))

    def produce(index):
        if index >= 4:
            return None
        scratch[...] = float(index)
        return scratch

    direct = [b.copy() for b in function_stream(produce, n_dof=3)]
    prefetched = list(
        PrefetchStream(function_stream(produce, n_dof=3), depth=2)
    )
    assert len(direct) == len(prefetched) == 4
    for a, b in zip(direct, prefetched):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("backend,nranks", [("threads", 3), ("self", 1)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_prefetched_stream_drives_svd_identically(backend, nranks, dtype):
    """backend x dtype: an SVD fed through PrefetchStream (+ overlap)
    equals the directly-fed reference bit-for-bit (asserted to 1e-12)."""
    rng = np.random.default_rng(11)
    m, batch = 90, 10
    data = (
        rng.standard_normal((m, 4)) @ rng.standard_normal((4, 6 * batch))
    ).astype(dtype)

    def job(comm, prefetch):
        part = block_partition(m, comm.size)
        stream = array_stream(data, batch).restrict_rows(
            part.slice_of(comm.rank)
        )
        if prefetch:
            stream = PrefetchStream(stream, depth=2)
        svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=0.97, overlap=prefetch))
        svd.fit_stream(stream)
        return np.array(svd.modes), np.array(svd.singular_values)

    ref_modes, ref_values = run_backend(backend, nranks, job, False)[0]
    pf_modes, pf_values = run_backend(backend, nranks, job, True)[0]
    assert pf_modes.dtype == ref_modes.dtype
    assert np.max(np.abs(pf_modes - ref_modes)) <= 1e-12
    assert np.max(np.abs(pf_values - ref_values)) <= 1e-12
