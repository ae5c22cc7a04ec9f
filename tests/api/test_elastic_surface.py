"""The public surface of ``ElasticSession`` on a fitted session:
checkpoint save and resume (gathered and sharded), every gather policy,
the tree lane under a live crash, and publishing to a serving store."""

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
from repro.exceptions import DataFormatError
from repro.faults import runtime as faults_rt
from repro.health import ElasticSession
from repro.obs import runtime as obs_rt
from repro.serving import ModeBaseStore

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


def base_config(ranks: int, **solver) -> RunConfig:
    return RunConfig(
        solver=SolverConfig(K=8, ff=0.95, **{"qr_variant": "gather", **solver}),
        backend=BackendConfig(name="threads", size=ranks, timeout=30.0),
        stream=StreamConfig(batch=BATCH),
    )


def job(session):
    result = session.fit_stream(DATA).result()
    return result.singular_values, result.modes


def fixed_size_reference(ranks: int, **solver):
    return Session.run(base_config(ranks, **solver), job)[0]


def max_gap(got, reference) -> float:
    """Largest deviation of ``(singular_values, modes)`` from a reference,
    modes compared up to sign."""
    (sv, modes), (sv_ref, modes_ref) = got, reference
    return max(
        float(np.max(np.abs(sv - sv_ref))),
        float(np.max(np.abs(np.abs(modes) - np.abs(modes_ref)))),
    )


def pair(result):
    return result.singular_values, result.modes


@pytest.fixture(autouse=True)
def _clean_runtimes():
    yield
    assert faults_rt.state() is None
    assert obs_rt.state() is None


class TestCheckpoints:
    def test_gathered_save_resumes_at_another_size(self, tmp_path):
        ckpt = tmp_path / "mid"
        with ElasticSession(base_config(4)) as session:
            session.fit_stream(DATA[:, :12])
            session.save_checkpoint(ckpt, gathered=True)
        with ElasticSession.resume(
            ckpt, backend=BackendConfig(name="threads", size=3, timeout=30.0)
        ) as session:
            assert session.size == 3
            assert session.driver.n_seen == 12
            session.fit_stream(DATA[:, 12:])
            result = session.result()
        assert result.n_seen == NT
        assert max_gap(pair(result), fixed_size_reference(4)) < TOL

    def test_sharded_save_resumes_through_session_run(self, tmp_path):
        ckpt = tmp_path / "shards"
        with ElasticSession(base_config(4)) as session:
            session.fit_stream(DATA[:, :12])
            session.save_checkpoint(ckpt)

        def rest(session):
            result = session.fit_stream(DATA[:, 12:]).result()
            return result.singular_values, result.modes

        results = Session.run(None, rest, resume=ckpt)
        assert len(results) == 4
        reference = fixed_size_reference(4)
        for got in results:
            assert max_gap(got, reference) < TOL


    def test_sharded_resume_at_another_size_is_refused(self, tmp_path):
        ckpt = tmp_path / "shards"
        cfg = base_config(4).replace(obs=ObservabilityConfig(metrics=True))
        with ElasticSession(cfg) as session:
            session.fit_stream(DATA[:, :12])
            session.save_checkpoint(ckpt)
        with pytest.raises(DataFormatError, match="taken at 4 ranks"):
            ElasticSession.resume(
                ckpt, backend=BackendConfig(name="threads", size=3)
            )


class TestResults:
    @pytest.mark.parametrize("gather", ["root", "none"])
    def test_every_gather_policy_returns_global_modes(self, gather):
        with ElasticSession(base_config(3, gather=gather)) as session:
            session.fit_stream(DATA)
            result = session.result()
        assert result.modes.shape == (NDOF, 8)
        assert max_gap(pair(result), fixed_size_reference(3)) < TOL

    def test_export_to_store_publishes_the_result_modes(self, tmp_path):
        store = ModeBaseStore(tmp_path / "store")
        with ElasticSession(base_config(3)) as session:
            session.fit_stream(DATA)
            version = session.export_to_store(store, "elastic")
            result = session.result()
        published = store.get("elastic", version)
        np.testing.assert_array_equal(published.modes, result.modes)
        np.testing.assert_array_equal(
            published.singular_values, result.singular_values
        )
        assert published.n_seen == NT


class TestLiveCrashOnTreeLane:
    def test_seeded_crash_recovers_on_the_tree_lane(self):
        cfg = base_config(4, qr_variant="tree").replace(
            faults=FaultConfig(
                enabled=True,
                seed=0,
                schedule=(FaultSpec(kind="crash", rank=2, op="*", at=7),),
            ),
            health=HealthConfig(
                enabled=True, heartbeat_interval=0.01, suspect_after=0.1
            ),
            obs=ObservabilityConfig(metrics=True),
        )
        obs_rt.reset()
        results = Session.run(
            cfg,
            job,
            restart_policy=RestartPolicy(
                mode="live", max_restarts=3, checkpoint_every=1, min_size=2
            ),
        )
        counters = obs_rt.default_registry().snapshot()["counters"]
        assert counters["repro.faults.injected.crash"]["value"] == 1
        assert counters["repro.recovery.live_rescales"]["value"] >= 1
        assert len(results) == 3
        reference = fixed_size_reference(4, qr_variant="tree")
        for got in results:
            assert max_gap(got, reference) < TOL
