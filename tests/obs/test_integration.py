"""End-to-end observability: Session wiring, multi-rank traces, the
hot-path overhead guard with observability disabled."""

import gc
import json
import tracemalloc

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
from repro.obs import runtime, phases_per_rank, validate_chrome_trace


def low_rank_data(n_dof, n_cols, seed=3):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n_dof, 6))
    right = rng.standard_normal((6, n_cols))
    return left @ right + 1e-4 * rng.standard_normal((n_dof, n_cols))


def obs_config(*, size=4, prefetch=1, trace=True):
    return RunConfig(
        solver=SolverConfig(K=4, ff=0.95),
        backend=BackendConfig(name="threads", size=size),
        stream=StreamConfig(batch=8, prefetch=prefetch),
        obs=ObservabilityConfig(metrics=True, trace=trace),
    )


class TestSessionLifecycle:
    def test_session_installs_and_uninstalls(self):
        cfg = RunConfig(
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
            obs=ObservabilityConfig(metrics=True),
        )
        assert not runtime.installed()
        with Session(cfg) as session:
            assert runtime.installed()
            session.fit_stream(low_rank_data(64, 30))
        assert not runtime.installed()

    def test_disabled_config_installs_nothing(self):
        cfg = RunConfig(
            backend=BackendConfig(name="self"), stream=StreamConfig(batch=10)
        )
        with Session(cfg) as session:
            assert not runtime.installed()
            session.fit_stream(low_rank_data(64, 30))
        assert not runtime.installed()

    def test_obs_section_shortcut(self):
        session = Session(
            backend=BackendConfig(name="self"),
            obs=ObservabilityConfig(metrics=True),
        )
        try:
            assert session.config.obs.metrics is True
            assert runtime.installed()
        finally:
            session.close()

    def test_constructor_failure_releases_install(self):
        cfg = RunConfig(
            backend=BackendConfig(name="threads", size=4),
            obs=ObservabilityConfig(metrics=True),
        )
        from repro.exceptions import ConfigurationError

        # A multi-rank threads Session must go through Session.run; the
        # constructor raises — and must not leak its obs install.
        with pytest.raises(ConfigurationError):
            Session(cfg)
        assert not runtime.installed()

    def test_session_metrics_snapshot(self):
        runtime.reset()
        cfg = RunConfig(
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
            obs=ObservabilityConfig(metrics=True),
        )
        with Session(cfg) as session:
            session.fit_stream(low_rank_data(64, 30))
            snap = session.metrics
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert "repro.core.step_seconds" in snap["histograms"]

    def test_dump_trace_writes_valid_chrome_json(self, tmp_path):
        runtime.reset()
        cfg = RunConfig(
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
            obs=ObservabilityConfig(metrics=True, trace=True),
        )
        path = tmp_path / "trace.json"
        with Session(cfg) as session:
            session.fit_stream(low_rank_data(64, 30))
            assert session.dump_trace(path) == str(path)
        validate_chrome_trace(json.loads(path.read_text()))


class TestMultiRankRun:
    def test_four_rank_trace_has_four_phases_per_rank(self):
        """A 4-rank threads run emits a schema-valid Chrome trace with >= 4
        distinct phases per rank, and one step_seconds and one
        finish_seconds observation per step, each finish within its
        step."""
        runtime.reset()
        data = low_rank_data(128, 48)

        def job(session):
            return session.fit_stream(data).result().singular_values

        values = Session.run(obs_config(size=4), job)
        assert all(np.allclose(v, values[0]) for v in values)
        assert not runtime.installed()  # every rank released its install

        payload = runtime.default_tracer().chrome_trace()
        validate_chrome_trace(payload)
        per_rank = phases_per_rank(payload)
        assert set(per_rank) == {0, 1, 2, 3}
        for rank, phases in per_rank.items():
            assert len(phases) >= 4, (rank, phases)

        snap = runtime.default_registry().snapshot()
        step = snap["histograms"]["repro.core.step_seconds"]
        finish = snap["histograms"]["repro.core.finish_seconds"]
        assert step["count"] == finish["count"] > 0
        assert finish["mean"] <= step["mean"]
        assert any(
            name.startswith("repro.smpi.") for name in snap["counters"]
        )

    def test_reflector_apply_is_a_qr_phase_span(self):
        """Each step's local QR and the apply of its reflectors both show
        in the ``qr`` phase, once per step on every rank."""
        runtime.reset()
        data = low_rank_data(96, 40)  # batch 8: 1 initialize + 4 steps

        def job(session):
            return session.fit_stream(data).result().n_seen

        Session.run(obs_config(size=2), job)
        counts = {}
        for event in runtime.default_tracer().events():
            if event["name"] in ("tsqr.local_qr", "tsqr.apply_q"):
                assert event["phase"] == "qr"
                key = (event["rank"], event["name"])
                counts[key] = counts.get(key, 0) + 1
        assert counts == {
            (rank, name): 4
            for rank in (0, 1)
            for name in ("tsqr.local_qr", "tsqr.apply_q")
        }

    def test_prefetch_counters_present(self):
        runtime.reset()
        data = low_rank_data(96, 40)

        def job(session):
            return session.fit_stream(data).result().n_seen

        Session.run(obs_config(size=2, prefetch=2), job)
        snap = runtime.default_registry().snapshot()
        batches = snap["counters"].get("repro.data.prefetch.batches")
        assert batches is not None
        assert batches["value"] > 0

    def test_numbers_identical_with_and_without_obs(self):
        """Instrumentation must never perturb the math."""
        data = low_rank_data(96, 40)

        def job(session):
            return session.fit_stream(data).result().singular_values

        plain_cfg = obs_config(size=2).replace(obs=ObservabilityConfig())
        plain = Session.run(plain_cfg, job)[0]
        runtime.reset()
        observed = Session.run(obs_config(size=2), job)[0]
        np.testing.assert_allclose(observed, plain, rtol=0, atol=0)


class TestServingMetrics:
    def test_flush_and_cache_metrics(self, tmp_path):
        from repro.serving import ModeBaseStore

        runtime.reset()
        data = low_rank_data(80, 40)
        store = ModeBaseStore(tmp_path / "store")
        cfg = RunConfig(
            solver=SolverConfig(K=4, ff=1.0),
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
            obs=ObservabilityConfig(metrics=True, trace=True),
        )

        with Session(cfg) as session:
            session.fit_stream(data)
            version = session.export_to_store(store, "demo")
            engine = session.query_engine(store)
            queries = [data[:, i : i + 2] for i in (0, 4, 8)]
            tickets = [
                engine.submit_project("demo", q, version) for q in queries
            ]
            assert engine.flush() == 3
            assert all(t.done for t in tickets)

        snap = runtime.default_registry().snapshot()
        assert snap["counters"]["repro.serving.queries"]["value"] == 3.0
        assert snap["histograms"]["repro.serving.flush_batch"]["count"] == 1
        assert snap["histograms"]["repro.serving.flush_batch"]["max"] == 3.0
        assert snap["histograms"]["repro.serving.flush_seconds"]["count"] == 1
        assert snap["counters"]["repro.serving.cache_misses"]["value"] >= 1.0
        flush_phases = [
            e
            for e in runtime.default_tracer().events()
            if e["phase"] == "flush"
        ]
        assert len(flush_phases) == 1


class TestDisabledStepOverhead:
    def test_disabled_steps_allocate_flat(self):
        """With observability off, steady-state streaming steps must not
        allocate more than before the instrumentation existed — the same
        flatness contract the hot-path bench gates, run small."""
        m, batch, steps, warmup = 240, 10, 40, 8
        data = low_rank_data(m, batch * (steps + 1), seed=11)
        cfg = RunConfig(
            solver=SolverConfig(K=6, ff=0.95),
            backend=BackendConfig(name="self"),
        )
        assert not runtime.installed()
        with Session(cfg) as session:
            session.initialize(data[:, :batch])
            for step in range(warmup):
                lo = (step + 1) * batch
                session.incorporate_data(data[:, lo : lo + batch])
            per_step = []
            gc.disable()
            tracemalloc.start()
            try:
                for step in range(warmup, steps):
                    lo = (step + 1) * batch
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    session.incorporate_data(data[:, lo : lo + batch])
                    _, peak = tracemalloc.get_traced_memory()
                    per_step.append(peak - before)
            finally:
                tracemalloc.stop()
                gc.enable()
        early = float(np.mean(per_step[:5]))
        late = float(np.mean(per_step[-5:]))
        assert late <= 1.25 * early + 4096, (early, late)
