"""Property-based tests: the pipelined engine's reductions and streams.

Covers the pipelined-engine contracts:

* ``allreduce(out=)`` fills the caller's buffer with exactly the
  allocating fold's numbers;
* ``PrefetchStream`` yields exactly the wrapped stream's batches, in
  order, across backend x dtype when driving the distributed SVD.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ParSVDParallel, SolverConfig
from repro.data import PrefetchStream, array_stream
from repro.smpi import SUM, run_backend, run_spmd
from repro.utils.partition import block_partition


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
    """backend x dtype: an SVD fed through PrefetchStream equals the
    directly-fed reference bit-for-bit (asserted to 1e-12)."""
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
        svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=0.97))
        svd.fit_stream(stream)
        return np.array(svd.modes), np.array(svd.singular_values)

    ref_modes, ref_values = run_backend(backend, nranks, job, False)[0]
    pf_modes, pf_values = run_backend(backend, nranks, job, True)[0]
    assert pf_modes.dtype == ref_modes.dtype
    assert np.max(np.abs(pf_modes - ref_modes)) <= 1e-12
    assert np.max(np.abs(pf_values - ref_values)) <= 1e-12
