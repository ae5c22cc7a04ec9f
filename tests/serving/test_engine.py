"""QueryEngine: micro-batching, tickets, LRU cache behaviour."""

import numpy as np
import pytest

from repro.analysis.reconstruction import project_coefficients
from repro.exceptions import BasisNotFoundError, ServingError, ShapeError
from repro.serving import ModeBaseStore, QueryEngine, ShardedBasis
from repro.smpi import create_communicator, run_spmd

M, K = 80, 4


def make_basis(seed, n_dof=M, k=K):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n_dof, k)))
    return u, np.linspace(1.0, 0.1, k)


@pytest.fixture
def store(tmp_path):
    store = ModeBaseStore(tmp_path / "store")
    for i, name in enumerate(["alpha", "beta", "gamma"]):
        u, s = make_basis(i)
        store.publish(name, u, s)
    return store


@pytest.fixture
def engine(store):
    return QueryEngine(create_communicator("self"), store)


class TestTickets:
    def test_pending_until_flush(self, engine, rng):
        data = rng.standard_normal((M, 3))
        ticket = engine.submit_project("alpha", data)
        assert not ticket.done
        assert engine.pending == 1
        with pytest.raises(ServingError, match="pending"):
            ticket.result()
        assert engine.flush() == 1
        assert ticket.done
        assert engine.pending == 0
        u, _ = make_basis(0)
        assert np.max(np.abs(ticket.result() - project_coefficients(u, data))) < 1e-12

    def test_vector_payload_promoted_to_column(self, engine, rng):
        snapshot = rng.standard_normal(M)
        coeffs = engine.project("alpha", snapshot)
        assert coeffs.shape == (K, 1)

    def test_unknown_kind_and_bad_payload(self, engine, rng):
        with pytest.raises(ServingError):
            engine.submit("transmogrify", "alpha", rng.standard_normal((M, 2)))
        with pytest.raises(ShapeError):
            engine.submit_project("alpha", rng.standard_normal((2, 2, 2)))

    def test_unknown_basis(self, engine, rng):
        with pytest.raises(BasisNotFoundError):
            engine.submit_project("nope", rng.standard_normal((M, 1)))

    def test_version_pinning(self, store, rng):
        """A ticket submitted against v1 still answers from v1 after a new
        publish — versions resolve at submit time."""
        engine = QueryEngine(create_communicator("self"), store)
        data = rng.standard_normal((M, 2))
        u1, _ = make_basis(0)
        t_pinned = engine.submit_project("alpha", data, version=1)
        u_new, s_new = make_basis(99)
        store.publish("alpha", u_new, s_new)
        t_latest = engine.submit_project("alpha", data)
        engine.flush()
        assert t_pinned.version == 1
        assert t_latest.version == 2
        assert np.allclose(t_pinned.result(), project_coefficients(u1, data))
        assert np.allclose(t_latest.result(), project_coefficients(u_new, data))


class TestMicroBatching:
    def test_one_gemm_per_group(self, engine, rng):
        """N pending project queries on one basis cost exactly one GEMM."""
        queries = [rng.standard_normal((M, 2)) for _ in range(10)]
        tickets = [engine.submit_project("alpha", q) for q in queries]
        assert engine.flush() == 10
        assert engine.stats()["gemms"] == 1
        u, _ = make_basis(0)
        for t, q in zip(tickets, queries):
            assert np.max(np.abs(t.result() - project_coefficients(u, q))) < 1e-12

    def test_groups_split_by_basis_and_kind(self, engine, rng):
        engine.submit_project("alpha", rng.standard_normal((M, 2)))
        engine.submit_project("beta", rng.standard_normal((M, 2)))
        engine.submit_error("alpha", rng.standard_normal((M, 2)))
        engine.submit_reconstruct("alpha", rng.standard_normal((K, 2)))
        assert engine.flush() == 4
        assert engine.stats()["gemms"] == 4  # four distinct (basis, kind) groups

    def test_auto_flush_threshold(self, store, rng):
        engine = QueryEngine(
            create_communicator("self"), store, flush_threshold=4
        )
        tickets = [
            engine.submit_project("alpha", rng.standard_normal((M, 1)))
            for _ in range(4)
        ]
        # The fourth submit crossed the threshold and flushed everything.
        assert all(t.done for t in tickets)
        assert engine.pending == 0
        assert engine.stats()["flushes"] == 1

    def test_mixed_widths_split_correctly(self, engine, rng):
        widths = [1, 3, 2, 5]
        queries = [rng.standard_normal((M, w)) for w in widths]
        tickets = [engine.submit_project("alpha", q) for q in queries]
        engine.flush()
        u, _ = make_basis(0)
        for t, q, w in zip(tickets, queries, widths):
            assert t.result().shape == (K, w)
            assert np.allclose(t.result(), project_coefficients(u, q))

    def test_flush_empty_is_noop(self, engine):
        assert engine.flush() == 0
        assert engine.stats()["flushes"] == 0


class TestLRUCache:
    def test_hot_basis_cached(self, engine, rng):
        data = rng.standard_normal((M, 1))
        engine.project("alpha", data)
        engine.project("alpha", data)
        engine.project("alpha", data)
        assert engine.stats()["cache_misses"] == 1
        assert engine.stats()["cache_hits"] == 2

    def test_eviction_order_is_lru(self, store, rng):
        engine = QueryEngine(
            create_communicator("self"), store, max_cached_bases=2
        )
        data = rng.standard_normal((M, 1))
        engine.project("alpha", data)
        engine.project("beta", data)
        engine.project("alpha", data)  # refresh alpha
        engine.project("gamma", data)  # evicts beta (the LRU entry)
        cached_names = [name for name, _ in engine.cached_bases]
        assert set(cached_names) == {"alpha", "gamma"}
        assert engine.stats()["evictions"] == 1
        # beta reloads transparently.
        engine.project("beta", data)
        assert engine.stats()["cache_misses"] == 4

    def test_in_memory_basis_pinned(self, store, rng):
        engine = QueryEngine(
            create_communicator("self"), store, max_cached_bases=1
        )
        u, s = make_basis(42)
        engine.add_basis("mem", u, s)
        data = rng.standard_normal((M, 1))
        engine.project("alpha", data)
        engine.project("beta", data)
        # The unevictable in-memory basis still answers.
        assert np.allclose(
            engine.project("mem", data), project_coefficients(u, data)
        )

    def test_add_basis_accepts_sharded(self, rng):
        comm = create_communicator("self")
        engine = QueryEngine(comm)  # storeless
        u, s = make_basis(1)
        engine.add_basis("mem", ShardedBasis.from_global(comm, u, s))
        data = rng.standard_normal((M, 2))
        assert np.allclose(
            engine.project("mem", data), project_coefficients(u, data)
        )

    def test_flush_of_a_cached_version_reads_no_manifest(
        self, engine, rng, monkeypatch
    ):
        data = rng.standard_normal((M, 1))
        engine.project("alpha", data)  # the LRU holds alpha v1
        calls = []
        real = ModeBaseStore.version_info

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(ModeBaseStore, "version_info", counted)
        ticket = engine.submit_project("alpha", data)
        engine.flush()
        # The submit resolved the version; the flush loads it as resolved.
        assert calls == [("alpha", None)]
        assert ticket.done and engine.stats()["cache_hits"] == 1
        # Loading the latest version still asks the manifest.
        assert engine.load("alpha") is engine.load("alpha", 1)
        assert calls == [("alpha", None)] * 2

    def test_storeless_unknown_name(self):
        engine = QueryEngine(create_communicator("self"))
        with pytest.raises(BasisNotFoundError, match="no store attached"):
            engine.submit_project("ghost", np.zeros((M, 1)))

    def test_bad_knobs_rejected(self, store):
        comm = create_communicator("self")
        with pytest.raises(ServingError):
            QueryEngine(comm, store, max_cached_bases=0)
        with pytest.raises(ServingError):
            QueryEngine(comm, store, flush_threshold=0)


class TestSpmdServing:
    def test_multirank_engine_consistent(self, store, rng):
        """Every rank of an SPMD serving job sees identical answers."""
        data = rng.standard_normal((M, 5))
        u, _ = make_basis(0)
        ref = project_coefficients(u, data)

        def job(comm):
            engine = QueryEngine(comm, store)
            t = engine.submit_project("alpha", data)
            e = engine.submit_error("alpha", data)
            engine.flush()
            return t.result(), e.result()

        results = run_spmd(3, job)
        for coeffs, err in results:
            assert np.max(np.abs(coeffs - ref)) < 1e-10
            assert np.isclose(err, results[0][1])


class TestReviewHardening:
    """Regressions for the review findings: submit-time validation,
    pinned-cache capacity, result-array independence."""

    def test_bad_payload_rejected_at_submit_not_flush(self, engine, rng):
        good = engine.submit_project("alpha", rng.standard_normal((M, 2)))
        with pytest.raises(ShapeError, match=f"must have {M} rows"):
            engine.submit_project("alpha", rng.standard_normal((M - 1, 2)))
        with pytest.raises(ShapeError, match="must have 4 rows"):
            engine.submit_reconstruct("alpha", rng.standard_normal((K + 1, 2)))
        with pytest.raises(BasisNotFoundError):
            engine.submit_project("alpha", rng.standard_normal((M, 2)), version=99)
        # The earlier good query was untouched by the rejected ones.
        assert engine.pending == 1
        engine.flush()
        assert good.done

    def test_pinned_bases_do_not_starve_cache(self, store, rng):
        engine = QueryEngine(
            create_communicator("self"), store, max_cached_bases=1
        )
        u, s = make_basis(42)
        engine.add_basis("mem", u, s)
        data = rng.standard_normal((M, 1))
        engine.project("alpha", data)
        engine.project("alpha", data)
        # "alpha" stays cached despite the pinned in-memory entry.
        assert engine.stats()["cache_misses"] == 1
        assert engine.stats()["evictions"] == 0

    def test_results_are_independent_arrays(self, engine, rng):
        q1, q2 = (rng.standard_normal((M, 2)) for _ in range(2))
        t1 = engine.submit_project("alpha", q1)
        t2 = engine.submit_project("alpha", q2)
        engine.flush()
        before = t2.result().copy()
        t1.result()[:] = 0.0  # mutating one answer ...
        assert np.array_equal(t2.result(), before)  # ... leaves others intact
        assert t1.result().base is None  # owns its memory

    def test_local_payload_rows_validated_at_submit(self, store, rng):
        from repro.utils.partition import block_partition

        data = rng.standard_normal((M, 2))

        def job(comm):
            engine = QueryEngine(comm, store)
            part = block_partition(M, comm.size)
            with pytest.raises(ShapeError):
                engine.submit_project("alpha", data, local=True)  # global rows
            ticket = engine.submit_project(
                "alpha", data[part.slice_of(comm.rank), :], local=True
            )
            engine.flush()
            return ticket.result()

        u, _ = make_basis(0)
        ref = u.T @ data
        for coeffs in run_spmd(2, job):
            assert np.max(np.abs(coeffs - ref)) < 1e-10


class TestTicketOwnership:
    def test_single_query_results_writable_on_every_rank(self, store, rng):
        """A one-query flush group must not hand the ticket an alias of
        the (possibly read-only, broadcast-shared) batch array."""
        data = rng.standard_normal((M, 3))

        def job(comm):
            engine = QueryEngine(comm, store)
            t_proj = engine.submit_project("alpha", data)
            engine.flush()
            coeffs = t_proj.result()
            coeffs *= 2.0  # must be legal on every rank
            t_rec = engine.submit_reconstruct("beta", coeffs[:, :1])
            engine.flush()
            field = t_rec.result()
            field += 1.0
            return coeffs.flags.writeable and field.flags.writeable

        assert all(run_spmd(3, job))
        assert all(run_spmd(1, job))
