"""End-to-end tests of the ``repro.net`` serving frontend.

A live :class:`NetServer` (ephemeral port, background thread) is driven
through :class:`ServingClient` over real sockets: submitted
project/reconstruct/error queries must match the in-process
``QueryEngine`` answers to 1e-10, the server commits groups (a submit
that reaches an idle engine with nothing queued behind it flushes itself
and answers ``200`` with its result, far inside its
``flush_deadline_ms`` SLO; submits that arrive while the engine is busy
answer ``202`` and ride the next flush, in batches of at most
``max_batch``), a failed flush must fail only its own jobs and be
counted once, and auth/tenancy/metrics/health behave per the endpoint
contract.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import (
    BackendConfig,
    ObservabilityConfig,
    RunConfig,
    Session,
    SolverConfig,
    StreamConfig,
)
from repro.config import ServingConfig, TenantSpec
from repro.net import ServingClient, ServingHTTPError, start_in_thread
from repro.obs import runtime as obs_rt
from repro.serving import ModeBaseStore, QueryEngine, ShardedBasis

NDOF, NT, K = 96, 48, 5

RUN_CFG = RunConfig(
    solver=SolverConfig(K=K, ff=1.0),
    backend=BackendConfig(name="self"),
    stream=StreamConfig(batch=12),
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A store with a published basis, plus the data it was built from."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((NDOF, NT))
    store = ModeBaseStore(tmp_path_factory.mktemp("netstore"))
    with Session(RUN_CFG) as session:
        version = session.fit_stream(data).export_to_store(store, "wave")
    return store, data, version


def serving(**kwargs) -> RunConfig:
    kwargs.setdefault("port", 0)
    kwargs.setdefault("flush_deadline_ms", 60.0)
    kwargs.setdefault("result_cache_entries", 16)
    return RUN_CFG.replace(serving=ServingConfig(**kwargs))


@pytest.fixture
def server(corpus):
    store, _, _ = corpus
    handle = start_in_thread(store, serving())
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServingClient.from_url(server.url) as client:
        yield client


class HeldFlush:
    """Holds the first flush's GEMM on the engine thread until
    :attr:`release` is set, so that later engine calls queue behind it."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()


@pytest.fixture
def held_flush(monkeypatch):
    held = HeldFlush()
    real = ShardedBasis.project

    def project(self, *args, **kwargs):
        if not held.entered.is_set():
            held.entered.set()
            assert held.release.wait(10.0), "the held flush was never released"
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ShardedBasis, "project", project)
    yield held
    held.release.set()


@pytest.fixture
def unreadable_once(monkeypatch):
    """The first basis load from the store fails, so the first flush
    fails; later loads succeed."""
    real = ShardedBasis.from_store
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise OSError("simulated unreadable store file")
        return real(*args, **kwargs)

    monkeypatch.setattr(ShardedBasis, "from_store", flaky)


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def submit_in_thread(url: str, payload, outcome: list) -> threading.Thread:
    """Submit ``payload`` from a client on a new thread, which appends the
    reply (or the ``ConnectionError`` of a server that stopped first) to
    ``outcome``; a submit to an idle engine blocks in its own flush."""

    def run() -> None:
        with ServingClient.from_url(url) as client:
            try:
                outcome.append(client.submit("wave", payload))
            except ConnectionError as exc:
                outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def post_query(client, payload) -> tuple:
    """``POST /v1/query`` in the list form; ``(status, reply)``."""
    body = {"basis": "wave", "kind": "project", "payload": payload.tolist()}
    return client.request_raw("POST", "/v1/query", body)


def reference_projection(store, payload) -> np.ndarray:
    with Session(RUN_CFG) as session:
        return session.query_engine(store).project("wave", payload)


class TestEndToEnd:
    def test_http_answers_match_in_process_engine(self, corpus, client):
        store, data, _ = corpus
        rng = np.random.default_rng(11)
        snapshots = [data[:, rng.integers(0, NT, size=3)] for _ in range(4)]
        coeff_payloads = [rng.standard_normal((K, 2)) for _ in range(2)]

        jobs = []
        for snap in snapshots:
            jobs.append(("project", client.submit("wave", snap, kind="project")))
            jobs.append(
                (
                    "reconstruction_error",
                    client.submit("wave", snap, kind="reconstruction_error"),
                )
            )
        for coeffs in coeff_payloads:
            jobs.append(
                ("reconstruct", client.submit("wave", coeffs, kind="reconstruct"))
            )
        answers = [client.result(job, wait=10.0) for _, job in jobs]

        with Session(RUN_CFG) as session:
            engine = session.query_engine(store)
            expected = []
            for snap in snapshots:
                expected.append(engine.project("wave", snap))
                expected.append(engine.reconstruction_error("wave", snap))
            for coeffs in coeff_payloads:
                expected.append(engine.reconstruct("wave", coeffs))
        # Interleave back into submit order: project+error alternate.
        ordered = []
        for i in range(len(snapshots)):
            ordered.append(expected[2 * i])
            ordered.append(expected[2 * i + 1])
        ordered.extend(expected[2 * len(snapshots) :])

        for got, want in zip(answers, ordered):
            assert np.max(np.abs(np.asarray(got) - np.asarray(want))) < 1e-10

    def test_solo_ticket_flushed_within_deadline_budget(self, corpus):
        store, data, _ = corpus
        deadline_ms = 10_000.0
        handle = start_in_thread(
            store, serving(flush_deadline_ms=deadline_ms, max_batch=64)
        )
        try:
            with ServingClient.from_url(handle.url) as client:
                t0 = time.monotonic()
                job = client.submit("wave", data[:, :2], kind="project")
                latency_s = time.monotonic() - t0
                stats = client.metrics()["engine"]
        finally:
            handle.stop()
        # Below the watermark, yet answered at submit: the submit reached
        # an idle engine, so its own engine call flushed it, by one
        # flush, far inside the deadline (a timer would have taken 10 s).
        assert job["status"] == "done" and job["cached"] is False
        assert latency_s < 2.0
        assert stats["flushes"] == 1
        assert stats["deadline_flushes"] == 0
        assert stats["last_flush_oldest_age_s"] * 1000.0 < deadline_ms / 10

    def test_watermark_still_flushes_full_batches(self, corpus, held_flush):
        store, data, _ = corpus
        max_batch, n = 3, 7
        handle = start_in_thread(
            store, serving(flush_deadline_ms=10_000.0, max_batch=max_batch)
        )
        answers: dict = {}

        def submit_and_collect(i: int) -> None:
            with ServingClient.from_url(handle.url) as client:
                job = client.submit("wave", data[:, i : i + 1])
                answers[i] = client.result(job, wait=5.0)

        threads = [
            threading.Thread(target=submit_and_collect, args=(i,))
            for i in range(1, n + 1)
        ]
        first: list = []
        try:
            # The first submit reaches an idle engine and blocks in its
            # own flush, which is held.
            leader = submit_in_thread(handle.url, data[:, :1], first)
            assert held_flush.entered.wait(5.0)
            for thread in threads:
                thread.start()
            # Every other submit is queued behind the held flush.
            wait_until(lambda: handle.server._engine_calls == 1 + n)
            held_flush.release.set()
            for thread in [leader, *threads]:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            with ServingClient.from_url(handle.url) as client:
                stats = client.metrics()["engine"]
        finally:
            held_flush.release.set()
            handle.stop()
        assert first[0]["status"] == "done"
        assert sorted(answers) == list(range(1, n + 1))
        # The held flush served the first query; the n queued behind it
        # were served in batches of at most max_batch.
        assert stats["flushes"] == 1 + math.ceil(n / max_batch)
        assert stats["queries"] == 1 + n
        assert stats["deadline_flushes"] == 0


class TestJobsEndpoint:
    def test_long_poll_blocks_until_flush(self, corpus, client):
        store, data, _ = corpus
        job = client.submit("wave", data[:, :1])
        payload = client.job(job["job"], wait=10.0)
        assert payload["status"] == "done"
        assert payload["kind"] == "project"
        assert payload["basis"] == "wave"
        assert payload["degraded"] is False

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServingHTTPError) as err:
            client.job("j999999-000000")
        assert err.value.status == 404

    @pytest.mark.parametrize("form", ["list", "ndarray"])
    def test_result_cache_hit_answers_at_submit(self, corpus, client, form):
        _, data, _ = corpus
        payload = data[:, 5:8]
        if form == "list":
            payload = payload.tolist()
        first = client.result(client.submit("wave", payload), wait=10.0)
        again = client.submit("wave", payload)
        assert again["status"] == "done"
        assert again["cached"] is True
        if form == "list":
            inline = np.asarray(again["result"])
        else:  # the npy form, read back by the client
            assert set(again["result"]) == {"npy"}
            inline = client.result(again)
        assert np.max(np.abs(inline - first)) == 0.0


class TestValidationErrors:
    @pytest.mark.parametrize(
        "body, status",
        [
            ({"kind": "project", "payload": [[1.0]]}, 400),  # no basis
            ({"basis": "wave", "kind": "project"}, 400),  # no payload
            ({"basis": "wave", "payload": [["x"]]}, 400),  # non-numeric
            ({"basis": "wave", "kind": "summon", "payload": [[1.0]]}, 400),
            ({"basis": "nope", "payload": [[1.0]]}, 404),  # unknown basis
            ({"basis": "wave", "payload": [[1.0, 2.0]]}, 400),  # bad rows
            ({"basis": "wave", "payload": [[1.0]], "version": "x"}, 400),
            # A bool is an int to Python, but true is not version 1.
            ({"basis": "wave", "payload": [[1.0]] * NDOF, "version": True}, 400),
            # Too large for a float64.
            ({"basis": "wave", "payload": [[10**400]] * NDOF}, 400),
        ],
    )
    def test_bad_submissions(self, client, body, status):
        got, _ = client.request_raw("POST", "/v1/query", body)
        assert got == status

    def test_unknown_route_and_method(self, client):
        assert client.request_raw("GET", "/v2/query")[0] == 404
        assert client.request_raw("GET", "/v1/query")[0] == 405
        assert client.request_raw("POST", "/metrics")[0] == 405

    def test_non_object_body_rejected(self, client):
        assert client.request_raw("POST", "/v1/query", [1, 2, 3])[0] == 400

    @pytest.mark.parametrize("token", [float("nan"), float("inf")])
    def test_non_finite_payload_rejected_before_the_engine(self, client, token):
        # json.dumps writes the NaN / Infinity tokens json.loads accepts.
        payload = [[0.5]] * (NDOF - 1) + [[token]]
        before = client.metrics()["engine"]["queries"]
        status, reply = client.request_raw(
            "POST", "/v1/query", {"basis": "wave", "payload": payload}
        )
        assert status == 400
        assert "finite" in reply["error"]
        assert client.metrics()["engine"]["queries"] == before


class TestAuth:
    @pytest.fixture
    def tenanted(self, corpus):
        store, _, _ = corpus
        cfg = serving(
            tenants=(
                TenantSpec(name="acme", key="acme-key"),
                TenantSpec(name="zeus", key="zeus-key"),
            )
        )
        handle = start_in_thread(store, cfg)
        yield handle
        handle.stop()

    def test_missing_and_wrong_keys_rejected(self, corpus, tenanted):
        _, data, _ = corpus
        with ServingClient.from_url(tenanted.url) as anon:
            assert (
                anon.request_raw(
                    "POST",
                    "/v1/query",
                    {"basis": "wave", "payload": data[:, :1].tolist()},
                )[0]
                == 401
            )
        with ServingClient.from_url(tenanted.url, api_key="wrong") as bad:
            assert bad.request_raw("GET", "/v1/jobs/j1")[0] == 401

    def test_probes_stay_open(self, tenanted):
        with ServingClient.from_url(tenanted.url) as anon:
            assert anon.healthz()[0] == 200
            assert "engine" in anon.metrics()

    def test_jobs_are_tenant_isolated(self, corpus, tenanted):
        _, data, _ = corpus
        with ServingClient.from_url(tenanted.url, api_key="acme-key") as acme:
            job = acme.submit("wave", data[:, :1])
            acme.result(job, wait=10.0)
            with ServingClient.from_url(
                tenanted.url, api_key="zeus-key"
            ) as zeus:
                with pytest.raises(ServingHTTPError) as err:
                    zeus.job(job["job"])
                assert err.value.status == 404
            # The owner still sees it.
            assert acme.job(job["job"])["status"] == "done"

    def test_per_tenant_counters(self, corpus, tenanted):
        _, data, _ = corpus
        with ServingClient.from_url(tenanted.url, api_key="acme-key") as acme:
            acme.result(acme.submit("wave", data[:, :1]), wait=10.0)
            snapshot = acme.metrics()["tenants"]
        assert snapshot["enabled"] is True
        assert snapshot["tenants"]["acme"]["queries"] == 1
        # Answered at submit: no long-poll (probes count for no tenant).
        assert snapshot["tenants"]["acme"]["requests"] == 1
        assert snapshot["tenants"]["zeus"]["queries"] == 0
        assert snapshot["unauthorized"] == 0


class TestOperatorEndpoints:
    def test_metrics_shape(self, corpus, client):
        _, data, _ = corpus
        client.result(client.submit("wave", data[:, :2]), wait=10.0)
        metrics = client.metrics()
        assert metrics["engine"]["queries"] >= 1
        assert "pending_by_group" in metrics["engine"]
        assert metrics["jobs"]["created"] >= 1
        assert metrics["server"]["requests"] >= 2
        assert {"counters", "gauges", "histograms"} <= set(
            metrics["registry"]
        )

    def test_healthz_ok_on_healthy_single_rank(self, client):
        status, payload = client.healthz()
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["failed_ranks"] == []
        assert payload["shard_group_down"] is False

    def test_healthz_degraded_when_shard_group_down(self, server, client):
        server.server._engine._shard_group_down = True
        try:
            status, payload = client.healthz()
        finally:
            server.server._engine._shard_group_down = False
        assert status == 503
        assert payload["status"] == "degraded"
        assert payload["shard_group_down"] is True


class TestServerLifecycle:
    def test_stop_is_idempotent_and_port_real(self, corpus):
        store, _, _ = corpus
        handle = start_in_thread(store, serving())
        assert handle.server.port > 0
        assert handle.url.startswith("http://127.0.0.1:")
        handle.stop()
        handle.stop()  # no-op

    def test_multi_rank_backend_rejected(self, corpus):
        from repro.exceptions import ConfigurationError

        store, _, _ = corpus
        cfg = serving().replace(backend=BackendConfig(name="threads", size=2))
        with pytest.raises(ConfigurationError, match="single-rank"):
            start_in_thread(store, cfg)

    def test_pending_jobs_answered_before_shutdown(self, corpus, held_flush):
        store, data, _ = corpus
        handle = start_in_thread(
            store, serving(flush_deadline_ms=60_000.0, max_batch=64)
        )
        server = handle.server
        engine = server._engine
        outcome: list = []
        stopper = threading.Thread(target=handle.stop)
        try:
            # The first submit blocks in its own flush, which is held; the
            # second queues behind it.
            leader = submit_in_thread(handle.url, data[:, :1], outcome)
            assert held_flush.entered.wait(5.0)
            submitter = submit_in_thread(handle.url, data[:, 1:2], outcome)
            wait_until(lambda: server._engine_calls == 2)
            stopper.start()
            # Release the held flush only once stop() has dropped the
            # engine: nothing can post a flush any more, so the queued
            # ticket is answered by stop()'s final flush alone.
            wait_until(lambda: server._engine is None)
        finally:
            held_flush.release.set()
            handle.stop()
        for thread in (stopper, leader, submitter):
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        # stop() closed both connections before the answers were sent.
        assert len(outcome) == 2
        assert all(isinstance(reply, ConnectionError) for reply in outcome)
        stats = engine.stats()
        assert stats["queries"] == 2
        assert stats["flushes"] == 2
        assert stats["pending"] == 0
        assert server._jobs.stats()["created"] == 2
        assert server._jobs.stats()["pending"] == 0


def _counter(name: str) -> float:
    counters = obs_rt.default_registry().snapshot()["counters"]
    return counters.get(name, {}).get("value", 0.0)


class TestGroupCommit:
    """The event loop commits groups: a flush as soon as the engine goes
    idle, no timer, no thread."""

    def test_steady_trickle_is_answered(self, corpus):
        store, data, _ = corpus
        handle = start_in_thread(
            store, serving(flush_deadline_ms=5.0, max_batch=64)
        )
        try:
            with ServingClient.from_url(handle.url) as client:
                jobs = []
                # ~2 ms apart: some submits land while a flush is on the
                # engine thread, and ride the next one.
                for i in range(40):
                    t_submit = time.monotonic()
                    jobs.append((t_submit, client.submit("wave", data[:, i : i + 1])))
                    time.sleep(0.002)
                for t_submit, job in jobs:
                    client.result(job, wait=1.0)
                    assert time.monotonic() - t_submit < 1.0
                metrics = client.metrics()
        finally:
            handle.stop()
        assert metrics["engine"]["pending"] == 0
        assert metrics["jobs"]["pending"] == 0

    def test_server_runs_on_two_threads(self, server):
        names = sorted(
            t.name for t in threading.enumerate() if t.name.startswith("repro-net")
        )
        assert len(names) == 2, names
        assert names[0].startswith("repro-net-engine_")
        assert names[1] == "repro-net-server"

    @pytest.mark.parametrize("client_open", [False, True])
    @pytest.mark.parametrize("deadline_ms", [1.0, 5.0, 60_000.0])
    def test_stop_with_work_pending_is_clean(
        self, corpus, caplog, held_flush, deadline_ms, client_open
    ):
        """Stopping is prompt and quiet with a ticket pending behind a
        held flush, also while a keep-alive client is still connected
        (its connection is closed, and its handler ends instead of being
        cancelled at loop teardown)."""
        store, data, _ = corpus
        outcome: list = []
        with caplog.at_level("DEBUG"):
            handle = start_in_thread(store, serving(flush_deadline_ms=deadline_ms))
            server = handle.server
            engine = server._engine
            stopper = threading.Thread(target=handle.stop, kwargs={"timeout": 5})
            with ServingClient.from_url(handle.url) as client:
                # A keep-alive connection with no request in flight.
                assert client.healthz()[0] == 200
                leader = submit_in_thread(handle.url, data[:, :1], outcome)
                assert held_flush.entered.wait(5.0)
                queued = submit_in_thread(handle.url, data[:, 1:2], outcome)
                wait_until(lambda: server._engine_calls == 2)
                if not client_open:
                    client.close()
                try:
                    stopper.start()
                    wait_until(lambda: server._engine is None)
                finally:
                    held_flush.release.set()
                for thread in (stopper, leader, queued):
                    thread.join(timeout=5.0)
                    assert not thread.is_alive()
        assert engine.stats()["pending"] == 0
        assert server._jobs.stats()["pending"] == 0
        assert "Task exception was never retrieved" not in caplog.text
        assert "cannot schedule new futures after shutdown" not in caplog.text
        assert "Exception in callback" not in caplog.text

    def test_failed_flush_fails_its_job_and_the_server_recovers(
        self, corpus, unreadable_once, caplog
    ):
        store, data, _ = corpus
        deadline_s = 0.02
        cfg = serving(flush_deadline_ms=deadline_s * 1e3).replace(
            obs=ObservabilityConfig(metrics=True)
        )
        errors_before = _counter("repro.errors.net")
        with caplog.at_level("WARNING", logger="repro.net.server"):
            handle = start_in_thread(store, cfg)
            try:
                with ServingClient.from_url(handle.url) as client:
                    t0 = time.monotonic()
                    # The submit's own flush failed: the submit answers
                    # 500 naming the cause, and so does its job.
                    with pytest.raises(ServingHTTPError) as err:
                        client.submit("wave", data[:, :1])
                    assert time.monotonic() - t0 < 1.0
                    assert err.value.status == 500
                    reply = err.value.payload
                    assert "simulated unreadable store file" in reply["error"]
                    assert f"job {reply['job']} failed" in reply["error"]
                    status, again_reply = client.request_raw(
                        "GET", f"/v1/jobs/{reply['job']}?wait=1"
                    )
                    assert (status, again_reply) == (500, reply)

                    t0 = time.monotonic()
                    second = client.submit("wave", data[:, 1:2])
                    client.result(second, wait=2.0)
                    assert time.monotonic() - t0 < deadline_s + 0.5

                    # The failure was not cached: the same payload is
                    # flushed again and answered.
                    again = client.submit("wave", data[:, :1])
                    assert again["status"] == "done"
                    assert again["cached"] is False
                    client.result(again, wait=2.0)
                    metrics = client.metrics()
            finally:
                handle.stop()
        assert _counter("repro.errors.net") - errors_before == 1
        assert metrics["engine"]["pending"] == 0
        warnings = [r for r in caplog.records if r.name == "repro.net.server"]
        assert len(warnings) == 1
        assert warnings[0].levelname == "WARNING"
        assert "simulated unreadable store file" in caplog.text


class TestAnswerAtSubmit:
    """A submit dispatched to an idle engine that is still the last call
    dispatched when it returns flushes in its own engine call: one
    request and one engine hop per lone query."""

    def test_lone_submit_answers_200_with_its_result(self, corpus):
        store, data, _ = corpus
        payload = data[:, 3:5]
        handle = start_in_thread(store, serving())
        try:
            with ServingClient.from_url(handle.url) as client:
                before = client.metrics()
                status, reply = post_query(client, payload)
                after = client.metrics()
        finally:
            handle.stop()
        assert status == 200
        assert reply["status"] == "done"
        assert reply["cached"] is False and reply["degraded"] is False
        want = reference_projection(store, payload)
        assert np.max(np.abs(np.asarray(reply["result"]) - want)) < 1e-10
        assert after["engine"]["flushes"] - before["engine"]["flushes"] == 1
        # One request for the query; the second /metrics counts itself.
        assert after["server"]["requests"] - before["server"]["requests"] == 2
        assert after["jobs"]["pending"] == 0

    def test_submits_behind_a_busy_engine_ride_one_flush(
        self, corpus, monkeypatch
    ):
        store, data, _ = corpus
        entered, release = threading.Event(), threading.Event()
        real = QueryEngine.submit

        def held_submit(self, *args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0), "the held submit was never released"
            return real(self, *args, **kwargs)

        monkeypatch.setattr(QueryEngine, "submit", held_submit)
        handle = start_in_thread(store, serving())
        server = handle.server
        replies: dict = {}

        def post(i: int) -> None:
            with ServingClient.from_url(handle.url) as client:
                replies[i] = post_query(client, data[:, i : i + 1])

        threads = [threading.Thread(target=post, args=(i,)) for i in range(2)]
        try:
            threads[0].start()
            assert entered.wait(5.0)
            # The second submit is dispatched while the first is held.
            threads[1].start()
            wait_until(lambda: server._engine_calls == 2)
            release.set()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            with ServingClient.from_url(handle.url) as client:
                answers = [client.result(replies[i][1], wait=5.0) for i in range(2)]
                stats = client.metrics()["engine"]
        finally:
            release.set()
            handle.stop()
        # Neither flushed itself: the first was no longer the last call
        # dispatched, the second reached a busy engine.
        assert [replies[i][0] for i in range(2)] == [202, 202]
        assert all(replies[i][1]["status"] == "pending" for i in range(2))
        assert stats["queries"] == 2
        assert stats["flushes"] == 1
        want = reference_projection(store, data[:, :2])
        assert np.max(np.abs(np.hstack(answers) - want)) < 1e-10

    def test_concurrent_submits_strand_no_ticket(self, corpus):
        """More client threads than cores under a short switch interval,
        so that submits keep landing while another call decides whether
        it is the last one dispatched: every query is answered, correctly,
        and nothing is left queued."""
        store, data, _ = corpus
        n_threads, windows, window = 6, 5, 3
        handle = start_in_thread(store, serving(max_batch=4))
        sent: dict = {}
        answers: dict = {}
        failures: list = []

        def run(t: int) -> None:
            rng = np.random.default_rng(100 + t)
            try:
                with ServingClient.from_url(handle.url) as client:
                    for w in range(windows):
                        replies = []
                        for i in range(window):
                            key = (t, w, i)
                            sent[key] = rng.standard_normal((NDOF, 1))
                            replies.append((key, client.submit("wave", sent[key])))
                        for key, reply in replies:
                            answers[key] = client.result(reply, wait=5.0)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(t,)) for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            with ServingClient.from_url(handle.url) as client:
                metrics = client.metrics()
        finally:
            sys.setswitchinterval(interval)
            handle.stop()
        assert failures == []
        assert len(answers) == n_threads * windows * window
        keys = sorted(sent)
        want = reference_projection(store, np.hstack([sent[k] for k in keys]))
        got = np.hstack([answers[k] for k in keys])
        assert np.max(np.abs(got - want)) < 1e-10
        assert metrics["engine"]["pending"] == 0
        assert metrics["jobs"]["pending"] == 0

    def test_failed_flush_inside_a_submit_is_counted_once(
        self, corpus, unreadable_once
    ):
        """With observability off, the failure is still counted, and
        ``/healthz`` reports it without changing its status code."""
        store, data, _ = corpus
        obs_rt.reset()  # the counters /healthz reads start at zero
        handle = start_in_thread(store, serving())
        try:
            assert obs_rt.state() is None
            with ServingClient.from_url(handle.url) as client:
                status, reply = post_query(client, data[:, :1])
                health_status, health = client.healthz()
                served = client.submit("wave", data[:, 1:2])
        finally:
            handle.stop()
        assert status == 500
        assert "simulated unreadable store file" in reply["error"]
        assert health_status == 200
        assert health["errors"] == {"net": 1, "health": 0}
        assert served["status"] == "done"
