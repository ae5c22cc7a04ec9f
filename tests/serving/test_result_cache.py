"""The keyed result cache and deadline accounting of ``QueryEngine``.

Cache contract: keys are ``(basis name, version, kind, payload
digest)``; hits fulfil at submit with no GEMM and no collective;
version bumps and payload changes miss; eviction is LRU; degraded
(failover) answers and ``local=True`` queries are never cached.
Deadline contract: ``oldest_pending_age_s`` exposes queue pressure, a
flush whose oldest ticket waited ``flush_deadline_ms`` counts in
``deadline_flushes``, and the engine never flushes spontaneously.  Failure
contract: a flush that raises first fails every unanswered ticket of
its batch, and caches none of them.
"""

import time

import numpy as np
import pytest

from repro.analysis.reconstruction import project_coefficients
from repro.exceptions import ServingError
from repro.serving import ModeBaseStore, QueryEngine, ShardedBasis
from repro.serving.engine import payload_digest
from repro.smpi import create_communicator

M, K = 60, 4


def make_basis(seed, n_dof=M, k=K):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n_dof, k)))
    return u, np.linspace(1.0, 0.1, k)


@pytest.fixture
def store(tmp_path):
    store = ModeBaseStore(tmp_path / "store")
    u, s = make_basis(0)
    store.publish("alpha", u, s)
    return store


def engine_for(store, **kwargs):
    kwargs.setdefault("result_cache_entries", 8)
    return QueryEngine(create_communicator("self"), store, **kwargs)


class TestPayloadDigest:
    def test_identical_payloads_collide(self, rng):
        data = rng.standard_normal((M, 3))
        assert payload_digest(data) == payload_digest(data.copy())

    def test_any_changed_byte_differs(self, rng):
        data = rng.standard_normal((M, 3))
        other = data.copy()
        other[17, 1] += 1e-14
        assert payload_digest(data) != payload_digest(other)

    def test_shape_and_dtype_matter(self):
        flat = np.zeros(12)
        assert payload_digest(flat.reshape(3, 4)) != payload_digest(
            flat.reshape(4, 3)
        )
        assert payload_digest(flat) != payload_digest(
            flat.astype(np.float32)
        )

    def test_non_contiguous_payloads_digest_by_content(self, rng):
        data = rng.standard_normal((M, 6))
        view = data[:, ::2]
        assert payload_digest(view) == payload_digest(view.copy())


class TestCacheHitMiss:
    def test_repeat_query_hits_without_gemm_or_collective(self, store, rng):
        engine = engine_for(store)
        data = rng.standard_normal((M, 3))
        first = engine.project("alpha", data)
        stats = engine.stats()
        gemms, collectives = stats["gemms"], stats["collectives"]

        ticket = engine.submit_project("alpha", data.copy())
        # Fulfilled at submit: no queueing, no flush needed.
        assert ticket.done and ticket.cached and not ticket.degraded
        assert engine.pending == 0
        assert np.allclose(ticket.result(), first)
        stats = engine.stats()
        assert stats["gemms"] == gemms
        assert stats["collectives"] == collectives
        assert stats["result_cache_hits"] == 1
        assert stats["result_cache_misses"] == 1

    def test_different_payload_misses(self, store, rng):
        engine = engine_for(store)
        engine.project("alpha", rng.standard_normal((M, 3)))
        ticket = engine.submit_project("alpha", rng.standard_normal((M, 3)))
        assert not ticket.done
        assert engine.stats()["result_cache_misses"] == 2

    def test_kinds_are_keyed_separately(self, store, rng):
        engine = engine_for(store)
        data = rng.standard_normal((M, 2))
        engine.project("alpha", data)
        ticket = engine.submit_error("alpha", data)
        assert not ticket.done  # project hit must not answer an error query
        engine.flush()
        assert ticket.result() == pytest.approx(
            float(
                np.linalg.norm(data - store.get("alpha").modes @ engine.project("alpha", data))
                / np.linalg.norm(data)
            ),
            abs=1e-10,
        )

    def test_version_bump_misses_naturally(self, store, rng):
        engine = engine_for(store)
        data = rng.standard_normal((M, 3))
        v1_answer = engine.project("alpha", data)
        # Publish a new version: latest now resolves to v2 at submit, so
        # the v1 cache entry cannot answer it.
        u2, s2 = make_basis(99)
        store.publish("alpha", u2, s2)
        ticket = engine.submit_project("alpha", data)
        assert not ticket.done
        engine.flush()
        assert np.allclose(ticket.result(), project_coefficients(u2, data))
        assert not np.allclose(ticket.result(), v1_answer)
        # Pinning the old version still hits its cached entry.
        pinned = engine.submit_project("alpha", data, version=1)
        assert pinned.done and pinned.cached
        assert np.allclose(pinned.result(), v1_answer)

    def test_cached_value_is_isolated_from_ticket_mutation(self, store, rng):
        engine = engine_for(store)
        data = rng.standard_normal((M, 2))
        first = engine.project("alpha", data)
        first[:] = -1.0  # clobber the caller's copy
        again = engine.submit_project("alpha", data).result()
        assert not np.allclose(again, -1.0)
        again[:] = -2.0  # clobber a hit's copy too
        assert not np.allclose(
            engine.submit_project("alpha", data).result(), -2.0
        )

    def test_disabled_by_default(self, store, rng):
        engine = QueryEngine(create_communicator("self"), store)
        data = rng.standard_normal((M, 2))
        engine.project("alpha", data)
        assert not engine.submit_project("alpha", data).done
        assert engine.cached_results == []

    def test_negative_capacity_rejected(self, store):
        with pytest.raises(ServingError, match="result_cache_entries"):
            QueryEngine(
                create_communicator("self"), store, result_cache_entries=-1
            )


class TestCacheExclusions:
    def test_local_queries_never_cached(self, store, rng):
        # local=True payloads are rank-dependent: caching them would let
        # ranks disagree on hit/miss and desynchronise the SPMD flush
        # schedule.
        engine = engine_for(store)
        data = rng.standard_normal((M, 2))  # self comm: local block = global
        engine.project("alpha", data, local=True)
        assert engine.cached_results == []
        ticket = engine.submit_project("alpha", data, local=True)
        assert not ticket.done

    def test_degraded_results_never_cached(self, store, rng):
        engine = engine_for(store)
        data = rng.standard_normal((M, 2))
        engine._shard_group_down = True  # force the failover path
        ticket = engine.submit_project("alpha", data)
        engine.flush()
        assert ticket.degraded
        assert engine.cached_results == []
        # A later identical submit is a miss, not a stale degraded hit.
        again = engine.submit_project("alpha", data)
        assert not again.done


class TestEvictionOrder:
    def test_lru_eviction(self, store, rng):
        engine = engine_for(store, result_cache_entries=2)
        a = rng.standard_normal((M, 1))
        b = rng.standard_normal((M, 1))
        c = rng.standard_normal((M, 1))
        engine.project("alpha", a)
        engine.project("alpha", b)
        # Touch a: it becomes most recent, so b is the eviction victim.
        assert engine.submit_project("alpha", a).cached
        engine.project("alpha", c)
        assert len(engine.cached_results) == 2
        assert engine.stats()["result_cache_evictions"] == 1
        assert engine.submit_project("alpha", a).done
        assert engine.submit_project("alpha", c).done
        assert not engine.submit_project("alpha", b).done  # evicted

    def test_eviction_keys_are_lru_ordered(self, store, rng):
        engine = engine_for(store, result_cache_entries=3)
        payloads = [rng.standard_normal((M, 1)) for _ in range(3)]
        for p in payloads:
            engine.project("alpha", p)
        keys = engine.cached_results
        assert keys[0][3] == payload_digest(payloads[0])
        assert keys[-1][3] == payload_digest(payloads[2])


class TestDeadlineAccounting:
    def test_oldest_pending_age(self, store, rng):
        engine = engine_for(store, flush_deadline_ms=10.0)
        assert engine.oldest_pending_age_s() == 0.0
        engine.submit_project("alpha", rng.standard_normal((M, 1)))
        t0 = time.monotonic()
        assert engine.oldest_pending_age_s(now=t0 + 0.5) >= 0.4
        # An exhausted budget does not flush: the owner drives flushes.
        assert engine.pending == 1
        engine.flush()
        assert engine.oldest_pending_age_s() == 0.0

    def test_flush_records_oldest_age_and_deadline_counter(self, store, rng):
        engine = engine_for(store, flush_deadline_ms=5.0)
        engine.submit_project("alpha", rng.standard_normal((M, 1)))
        time.sleep(0.02)
        engine.flush()
        stats = engine.stats()
        assert stats["deadline_flushes"] == 1
        assert stats["last_flush_oldest_age_s"] >= 0.005
        assert stats["pending"] == 0

    def test_no_budget_means_no_deadline_flush(self, store, rng):
        engine = engine_for(store)
        engine.submit_project("alpha", rng.standard_normal((M, 1)))
        time.sleep(0.02)
        engine.flush()
        assert engine.stats()["deadline_flushes"] == 0

    def test_invalid_budget_rejected(self, store):
        with pytest.raises(ServingError, match="flush_deadline_ms"):
            engine_for(store, flush_deadline_ms=0.0)

    def test_stats_reports_pending_by_group(self, store, rng):
        engine = engine_for(store, flush_threshold=64)
        engine.submit_project("alpha", rng.standard_normal((M, 1)))
        engine.submit_project("alpha", rng.standard_normal((M, 1)))
        engine.submit_error("alpha", rng.standard_normal((M, 1)))
        stats = engine.stats()
        assert stats["pending"] == 3
        assert stats["pending_by_group"] == {
            "alpha:project": 2,
            "alpha:reconstruction_error": 1,
        }
        assert engine.pending_by_group()[("alpha", "project")] == 2
        engine.flush()
        assert engine.stats()["pending_by_group"] == {}


class TestTicketTimeout:
    def test_no_timeout_keeps_instant_contract(self, store, rng):
        engine = engine_for(store)
        ticket = engine.submit_project("alpha", rng.standard_normal((M, 1)))
        with pytest.raises(ServingError, match="still pending"):
            ticket.result()


class TestFlushFailure:
    def test_failed_flush_settles_every_ticket_then_reraises(
        self, store, rng, monkeypatch
    ):
        engine = engine_for(store)
        payloads = [rng.standard_normal((M, 1)) for _ in range(3)]
        tickets = [engine.submit_project("alpha", p) for p in payloads]

        def unreadable(*args, **kwargs):
            raise OSError("store file unreadable")

        monkeypatch.setattr(ShardedBasis, "from_store", unreadable)
        with pytest.raises(OSError, match="unreadable"):
            engine.flush()
        for ticket in tickets:
            assert ticket.done
            with pytest.raises(ServingError, match="failed in its flush") as err:
                ticket.result()
            assert isinstance(err.value.__cause__, OSError)
        assert engine.pending == 0
        assert engine.cached_results == []

        monkeypatch.undo()
        retry = engine.submit_project("alpha", payloads[0])
        assert not retry.done  # the failure was not cached
        engine.flush()
        assert np.allclose(
            retry.result(),
            project_coefficients(store.get("alpha").modes, payloads[0]),
        )

    def test_groups_answered_before_the_failure_keep_their_answers(
        self, store, rng, monkeypatch
    ):
        u, s = make_basis(1)
        store.publish("beta", u, s)
        engine = engine_for(store)
        data = rng.standard_normal((M, 1))
        good = engine.submit_project("alpha", data)
        bad = engine.submit_project("beta", data)
        real = ShardedBasis.from_store

        def beta_unreadable(comm, store_, name, version):
            if name == "beta":
                raise OSError("beta unreadable")
            return real(comm, store_, name, version)

        monkeypatch.setattr(ShardedBasis, "from_store", beta_unreadable)
        with pytest.raises(OSError):
            engine.flush()
        assert np.allclose(
            good.result(), project_coefficients(store.get("alpha").modes, data)
        )
        with pytest.raises(ServingError, match="beta unreadable"):
            bad.result()
