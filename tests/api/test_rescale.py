"""Live mid-stream rescale: ``ElasticSession.rescale`` re-partitions a
running stream without replay and matches fixed-size runs to 1e-12 with
zero leaked requests; ``RestartPolicy(mode="live")`` recovers a seeded
crash by in-place shrink (no restart, no replayed batches)."""

import numpy as np
import pytest

from repro.api import (
    BackendConfig,
    FaultConfig,
    FaultSpec,
    HealthConfig,
    ObservabilityConfig,
    RestartPolicy,
    RunConfig,
    Session,
    SolverConfig,
    StreamConfig,
)
from repro.exceptions import ConfigurationError, RescaleError
from repro.faults import runtime as faults_rt
from repro.health import ElasticSession
from repro.obs import runtime as obs_rt
from repro.smpi import provenance
from repro.smpi.exceptions import CommunicatorError

NDOF, NT, BATCH = 64, 24, 4
TOL = 1e-12


def make_data() -> np.ndarray:
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, NDOF)
    t = np.linspace(0.0, 1.0, NT)
    basis = np.column_stack([np.sin((i + 1) * np.pi * x) for i in range(5)])
    weights = np.column_stack(
        [np.cos((i + 1) * 2.0 * np.pi * t) / (i + 1.0) for i in range(5)]
    )
    return basis @ weights.T + 0.01 * rng.standard_normal((NDOF, NT))


DATA = make_data()
BATCHES = [DATA[:, j : j + BATCH] for j in range(0, NT, BATCH)]


def base_config(ranks: int) -> RunConfig:
    return RunConfig(
        solver=SolverConfig(K=8, ff=0.95, qr_variant="gather"),
        backend=BackendConfig(name="threads", size=ranks, timeout=30.0),
        stream=StreamConfig(batch=BATCH),
    )


def fixed_size_reference(ranks: int):
    def job(session):
        result = session.fit_stream(DATA).result()
        return result.singular_values, result.modes

    return Session.run(base_config(ranks), job)[0]


def assert_matches(result, reference):
    sv, modes = reference
    assert float(np.max(np.abs(result.singular_values - sv))) < TOL
    assert float(np.max(np.abs(np.abs(result.modes) - np.abs(modes)))) < TOL


@pytest.fixture(autouse=True)
def _clean_runtimes():
    yield
    assert faults_rt.state() is None
    assert obs_rt.state() is None


class TestMidStreamRescale:
    @pytest.mark.parametrize("start, new", [(4, 3), (2, 4)])
    def test_rescale_matches_fixed_size_runs_with_zero_leaks(self, start, new):
        """Acceptance: shrink 4->3 and grow 2->4 mid-stream, both within
        1e-12 of the uninterrupted runs at either size, nothing leaked."""
        with provenance.track() as scope:
            with ElasticSession(base_config(start)) as session:
                session.initialize(BATCHES[0])
                for batch in BATCHES[1:3]:
                    session.incorporate_data(batch)
                session.rescale(new)
                assert session.size == new
                assert session.live_rescales == 1
                for batch in BATCHES[3:]:
                    session.incorporate_data(batch)
                result = session.result()
            leaked = scope.pending_requests()
            assert leaked == [], leaked
        assert_matches(result, fixed_size_reference(start))
        assert_matches(result, fixed_size_reference(new))

    def test_rescale_between_fit_stream_calls(self):
        with ElasticSession(base_config(4)) as session:
            session.fit_stream(DATA[:, : NT // 2])
            session.rescale(3)
            session.fit_stream(DATA[:, NT // 2 :])
            result = session.result()
        assert_matches(result, fixed_size_reference(4))

    def test_rescale_to_same_size_is_a_noop(self):
        with ElasticSession(base_config(2)) as session:
            session.initialize(BATCHES[0])
            session.rescale(2)
            assert session.live_rescales == 0

    def test_rescale_before_any_data(self):
        with ElasticSession(base_config(2)) as session:
            session.rescale(3)
            assert session.size == 3
            session.fit_stream(DATA)
            result = session.result()
        assert_matches(result, fixed_size_reference(3))

    def test_elastic_session_equals_plain_session_without_rescale(self):
        with ElasticSession(base_config(4)) as session:
            session.fit_stream(DATA)
            result = session.result()
        sv, modes = fixed_size_reference(4)
        assert np.array_equal(result.singular_values, sv)
        assert float(np.max(np.abs(np.abs(result.modes) - np.abs(modes)))) == 0.0

    def test_rescale_is_metered(self):
        cfg = base_config(2).replace(obs=ObservabilityConfig(metrics=True))
        with ElasticSession(cfg) as session:
            session.initialize(BATCHES[0])
            session.rescale(3)
            counters = obs_rt.default_registry().snapshot()["counters"]
            assert counters["repro.recovery.live_rescales"]["value"] == 1

    def test_failed_abort_during_rescale_is_counted_and_logged_once(
        self, monkeypatch, caplog
    ):
        close = Session.close

        def exploding_close(self, **kwargs):
            # The real close runs first, so every install is released.
            close(self, **kwargs)
            raise RuntimeError("close exploded")

        def errors():
            counters = obs_rt.default_registry().snapshot()["counters"]
            return counters.get("repro.errors.health", {}).get("value", 0)

        monkeypatch.setattr(Session, "close", exploding_close)
        cfg = base_config(2).replace(obs=ObservabilityConfig(metrics=True))
        with caplog.at_level("WARNING", logger="repro.health.elastic"):
            with ElasticSession(cfg) as session:
                session.initialize(BATCHES[0])
                errors_before = errors()
                session.rescale(3)
                assert session.size == 3
                # One count per old-world rank whose close raised.
                assert errors() - errors_before == 2
        warnings = [r for r in caplog.records if r.name == "repro.health.elastic"]
        assert len(warnings) == 1
        assert "close exploded" in caplog.text


class TestLiveRecovery:
    def crashing(self, ranks, rank, at):
        return base_config(ranks).replace(
            faults=FaultConfig(
                enabled=True,
                seed=0,
                schedule=(FaultSpec(kind="crash", rank=rank, op="*", at=at),),
            ),
            health=HealthConfig(
                enabled=True, heartbeat_interval=0.01, suspect_after=0.1
            ),
            obs=ObservabilityConfig(metrics=True),
        )

    def test_seeded_crash_recovers_by_in_place_shrink(self):
        """Acceptance: mode='live' turns a dead rank into a shrink —
        zero replayed batches, >= 1 live rescale, same 1e-12 answer."""
        cfg = self.crashing(4, rank=2, at=7)

        def job(session):
            result = session.fit_stream(DATA).result()
            return result.singular_values, result.modes

        obs_rt.reset()
        results = Session.run(
            cfg,
            job,
            restart_policy=RestartPolicy(
                mode="live", max_restarts=3, checkpoint_every=1, min_size=2
            ),
        )
        counters = obs_rt.default_registry().snapshot()["counters"]

        def count(name):
            meter = counters.get(name)
            return int(meter["value"]) if meter else 0

        assert count("repro.faults.injected.crash") == 1
        assert count("repro.recovery.live_rescales") >= 1
        assert count("repro.recovery.replayed_batches") == 0
        assert count("repro.recovery.restarts") == 0
        assert len(results) == 3  # the world shrank in place
        sv_ref, modes_ref = fixed_size_reference(4)
        for sv, modes in results:
            assert float(np.max(np.abs(sv - sv_ref))) < TOL
            assert (
                float(np.max(np.abs(np.abs(modes) - np.abs(modes_ref)))) < TOL
            )

    def test_exhausted_live_recovery_reraises(self):
        cfg = self.crashing(2, rank=1, at=5)

        def job(session):
            session.fit_stream(DATA)
            return session.result().singular_values

        with pytest.raises(CommunicatorError):
            Session.run(
                cfg,
                job,
                restart_policy=RestartPolicy(mode="live", max_restarts=0),
            )

    def test_restart_mode_still_the_default(self):
        assert RestartPolicy().mode == "restart"
        with pytest.raises(ConfigurationError):
            RestartPolicy(mode="bogus")


class TestValidation:
    def test_elastic_session_requires_threads_backend(self):
        with pytest.raises(ConfigurationError, match="threads"):
            ElasticSession(
                RunConfig(backend=BackendConfig(name="self", size=1))
            )

    def test_rescale_rejects_bad_sizes(self):
        with ElasticSession(base_config(2)) as session:
            with pytest.raises(RescaleError):
                session.rescale(0)
            with pytest.raises(RescaleError):
                session.rescale("three")

    def test_plain_session_cannot_rescale(self):
        cfg = RunConfig(backend=BackendConfig(name="self", size=1))
        with Session(cfg) as session:
            with pytest.raises(RescaleError, match="fixed-size"):
                session.rescale(2)
