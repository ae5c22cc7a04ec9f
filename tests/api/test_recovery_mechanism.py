"""The one recovery mechanism behind ``Session.run(restart_policy=...)``:
only rank failures are retried, live mode refuses what it cannot return,
and an mpi4py world recovers through the ``checkpoint_path`` file."""

import threading

import numpy as np
import pytest

from repro.api import (
    BackendConfig,
    ObservabilityConfig,
    Recovery,
    RestartPolicy,
    RunConfig,
    Session,
    SolverConfig,
    StreamConfig,
)
from repro.exceptions import ConfigurationError
from repro.faults import runtime as faults_rt
from repro.obs import runtime as obs_rt
from repro.smpi import create_communicator
from repro.smpi.executor import ParallelFailure

NDOF, NT, BATCH = 32, 12, 4
DATA = np.random.default_rng(3).standard_normal((NDOF, NT))


def base_config(ranks: int, name: str = "threads") -> RunConfig:
    return RunConfig(
        solver=SolverConfig(K=4, ff=0.95),
        backend=BackendConfig(name=name, size=ranks, timeout=30.0),
        stream=StreamConfig(batch=BATCH),
        obs=ObservabilityConfig(metrics=True),
    )


def counter(name: str) -> int:
    meter = obs_rt.default_registry().snapshot()["counters"].get(name)
    return int(meter["value"]) if meter else 0


@pytest.fixture(autouse=True)
def _clean_runtimes():
    yield
    assert faults_rt.state() is None
    assert obs_rt.state() is None


class Entries:
    """Thread-safe record of which ranks entered the job."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ranks = []

    def __call__(self, session) -> None:
        with self._lock:
            self.ranks.append(session.comm.rank)


class TestRetryOnlyRankFailures:
    def test_deterministic_job_error_is_not_retried(self):
        entered = Entries()

        def job(session):
            entered(session)
            raise ValueError("bad input, every attempt")

        obs_rt.reset()
        with pytest.raises(ParallelFailure) as info:
            Session.run(
                base_config(2),
                job,
                restart_policy=RestartPolicy(max_restarts=2, backoff_s=0.01),
            )
        assert all(
            isinstance(f.exception, ValueError) for f in info.value.failures
        )
        assert sorted(entered.ranks) == [0, 1]
        assert counter("repro.recovery.restarts") == 0


class TestResume:
    def test_failed_resume_releases_every_session(self, tmp_path):
        ckpt = tmp_path / "shards"

        def save(session):
            session.fit_stream(DATA).save_checkpoint(ckpt)

        Session.run(base_config(2), save)
        # The shards hold two ranks; three cannot restore them.  Every
        # rank's session must still release its runtime installs (the
        # autouse fixture checks).
        with pytest.raises(ParallelFailure, match="taken at 2 ranks"):
            Session.run(base_config(3), save, resume=ckpt)


class TestLiveModeContract:
    def test_live_mode_rejects_trace_before_any_rank_starts(self):
        entered = Entries()

        def job(session):
            entered(session)
            return session.fit_stream(DATA).result().singular_values

        with pytest.raises(ConfigurationError, match="trace"):
            Session.run(
                base_config(2),
                job,
                trace=True,
                restart_policy=RestartPolicy(mode="live"),
            )
        assert entered.ranks == []


class TestMpi4pyRecovery:
    def test_restart_policy_needs_a_checkpoint_path(self, monkeypatch):
        import repro.api

        def no_world(*args, **kwargs):
            raise AssertionError("a communicator was requested")

        monkeypatch.setattr(repro.api, "run_backend", no_world)
        monkeypatch.setattr(repro.api, "create_communicator", no_world)
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            Session.run(
                base_config(2, name="mpi4py"),
                lambda session: None,
                restart_policy=RestartPolicy(),
            )

    def test_every_rank_restores_from_the_file(self, tmp_path):
        # What rank 0's process captured before the failure, on disk.
        with Session(base_config(1, name="self")) as writer:
            writer.fit_stream(DATA)
            writer.save_checkpoint(tmp_path / "recovery", gathered=True)
        policy = RestartPolicy(checkpoint_path=str(tmp_path))
        with Recovery(base_config(1, name="mpi4py"), policy) as recovery:
            # A new run starts fresh: a file it did not write is not its
            # state.
            with recovery.open(create_communicator("self")) as session:
                assert not session.driver.initialized
            # After a rebuild a process that captured nothing itself
            # restores the file.
            recovery.rebuilt(1)
            with recovery.open(create_communicator("self")) as session:
                assert session.driver.n_seen == NT
