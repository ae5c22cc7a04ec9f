"""Elastic recovery: ``Session.run(restart_policy=...)`` replays an
injected-crash run from the last auto-checkpoint and matches the
fault-free run bit-for-bit; ``close(drop_pending=True)`` stops prefetch
producers abandoned mid-stream."""

import threading

import numpy as np
import pytest

from repro.api import (
    BackendConfig,
    FaultConfig,
    FaultSpec,
    ObservabilityConfig,
    RestartPolicy,
    RunConfig,
    Session,
    SolverConfig,
    StreamConfig,
)
from repro.exceptions import ConfigurationError
from repro.faults import runtime as faults_rt
from repro.obs import runtime as obs_rt
from repro.smpi.executor import ParallelFailure

NDOF, NT, BATCH = 64, 24, 4


def make_data() -> np.ndarray:
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, NDOF)
    t = np.linspace(0.0, 1.0, NT)
    basis = np.column_stack([np.sin((i + 1) * np.pi * x) for i in range(5)])
    weights = np.column_stack(
        [np.cos((i + 1) * 2.0 * np.pi * t) / (i + 1.0) for i in range(5)]
    )
    data = basis @ weights.T
    return data + 0.01 * rng.standard_normal(data.shape)


DATA = make_data()


def base_config(ranks: int, qr_variant: str = "gather") -> RunConfig:
    return RunConfig(
        solver=SolverConfig(K=8, ff=0.95, qr_variant=qr_variant),
        backend=BackendConfig(name="threads", size=ranks, timeout=30.0),
        stream=StreamConfig(batch=BATCH),
        obs=ObservabilityConfig(metrics=True),
    )


def job(session: Session):
    result = session.fit_stream(DATA).result()
    return result.singular_values, result.modes


def crashing(base: RunConfig, rank: int, at: int) -> RunConfig:
    return base.replace(
        faults=FaultConfig(
            enabled=True,
            seed=0,
            schedule=(FaultSpec(kind="crash", rank=rank, op="*", at=at),),
        )
    )


def counter(name: str) -> int:
    meter = obs_rt.default_registry().snapshot()["counters"].get(name)
    return int(meter["value"]) if meter else 0


@pytest.fixture(autouse=True)
def _clean_runtimes():
    yield
    # Every recovery path must unwind its fault/obs installs, even the
    # failing ones.
    assert faults_rt.state() is None
    assert obs_rt.state() is None


@pytest.fixture(scope="module")
def baselines():
    """Fault-free reference results, one per (lane, ranks) cell."""
    refs = {}
    for lane in ("gather", "tree"):
        for ranks in (1, 4):
            refs[(lane, ranks)] = Session.run(base_config(ranks, lane), job)
    return refs


def assert_matches(recovered, clean, tol=1e-12):
    assert len(recovered) == len(clean)
    for (rsv, rmodes), (csv, cmodes) in zip(recovered, clean):
        np.testing.assert_allclose(rsv, csv, rtol=0.0, atol=tol)
        np.testing.assert_allclose(
            np.abs(rmodes), np.abs(cmodes), rtol=0.0, atol=tol
        )


class TestCrashRecovery:
    # Crash ordinals chosen from a measured op census of this stream
    # (~20 comm ops per rank at 4 ranks, 5 total at 1): early (during
    # initialization), mid-stream, and near the tail.
    @pytest.mark.parametrize("lane", ["gather", "tree"])
    @pytest.mark.parametrize("crash_at", [1, 7, 19])
    def test_four_ranks_recover_bit_identically(
        self, baselines, lane, crash_at
    ):
        cfg = crashing(base_config(4, lane), rank=1, at=crash_at)
        obs_rt.reset()
        recovered = Session.run(
            cfg,
            job,
            restart_policy=RestartPolicy(
                max_restarts=2, backoff_s=0.01, checkpoint_every=1
            ),
        )
        assert counter("repro.faults.injected.crash") >= 1
        assert counter("repro.recovery.restarts") >= 1
        assert_matches(recovered, baselines[(lane, 4)])

    @pytest.mark.parametrize("lane", ["gather", "tree"])
    @pytest.mark.parametrize("crash_at", [1, 3])
    def test_single_rank_recovers_bit_identically(
        self, baselines, lane, crash_at
    ):
        cfg = crashing(base_config(1, lane), rank=0, at=crash_at)
        obs_rt.reset()
        recovered = Session.run(
            cfg,
            job,
            restart_policy=RestartPolicy(
                max_restarts=2, backoff_s=0.01, checkpoint_every=1
            ),
        )
        assert counter("repro.recovery.restarts") >= 1
        assert_matches(recovered, baselines[(lane, 1)])

    def test_replayed_batches_are_skipped_not_reingested(self, baselines):
        # A crash near the tail restores almost the whole stream from
        # the checkpoint; the replay must meter the skipped batches.
        cfg = crashing(base_config(4, "gather"), rank=1, at=19)
        obs_rt.reset()
        recovered = Session.run(
            cfg,
            job,
            restart_policy=RestartPolicy(
                max_restarts=2, backoff_s=0.01, checkpoint_every=1
            ),
        )
        assert counter("repro.recovery.replayed_batches") >= 4
        assert_matches(recovered, baselines[("gather", 4)])

    def test_restart_exhaustion_reraises(self):
        cfg = crashing(base_config(4, "gather"), rank=1, at=7)
        with pytest.raises(ParallelFailure):
            Session.run(
                cfg,
                job,
                restart_policy=RestartPolicy(
                    max_restarts=0, backoff_s=0.01, checkpoint_every=1
                ),
            )

    def test_elastic_shrink_drops_one_rank(self, baselines):
        cfg = crashing(base_config(4, "gather"), rank=1, at=7)
        obs_rt.reset()
        recovered = Session.run(
            cfg,
            job,
            restart_policy=RestartPolicy(
                max_restarts=2,
                backoff_s=0.01,
                checkpoint_every=1,
                shrink=True,
                min_size=2,
            ),
        )
        # The restarted world is one rank smaller.
        assert len(recovered) == 3
        assert counter("repro.recovery.restarts") >= 1
        # Different rank counts reorder the reductions, so exactness
        # relaxes to numerical agreement.
        assert_matches(recovered[:1], baselines[("gather", 4)][:1], tol=1e-8)

    def test_checkpoint_path_is_reused(self, tmp_path, baselines):
        ckpt_dir = tmp_path / "recovery-state"
        cfg = crashing(base_config(4, "gather"), rank=1, at=7)
        obs_rt.reset()
        recovered = Session.run(
            cfg,
            job,
            restart_policy=RestartPolicy(
                max_restarts=2,
                backoff_s=0.01,
                checkpoint_every=1,
                checkpoint_path=str(ckpt_dir),
            ),
        )
        assert (ckpt_dir / "recovery.npz").exists()
        assert_matches(recovered, baselines[("gather", 4)])

    def test_restart_policy_type_checked(self):
        with pytest.raises(ConfigurationError, match="RestartPolicy"):
            Session.run(base_config(1), job, restart_policy=object())

    def test_no_policy_crash_propagates(self):
        cfg = crashing(base_config(4, "gather"), rank=1, at=7)
        with pytest.raises(ParallelFailure):
            Session.run(cfg, job)


class TestReplaySkip:
    def test_resume_skips_seen_prefix(self, tmp_path):
        ckpt = tmp_path / "mid"
        cfg = base_config(1)
        clean = Session.run(cfg, job)

        with Session(cfg) as session:
            session.fit_stream(DATA[:, :12])
            session.save_checkpoint(ckpt, gathered=True)

        obs_rt.reset()
        obs_rt.install(metrics=True)
        try:
            with Session.resume(ckpt, config=cfg) as session:
                assert session.driver.n_seen == 12
                # Replaying the FULL stream skips the first three
                # batches and ingests only the remainder.
                result = session.fit_stream(DATA, replay=True).result()
            assert counter("repro.recovery.replayed_batches") == 3
        finally:
            obs_rt.uninstall()
        np.testing.assert_array_equal(result.singular_values, clean[0][0])
        np.testing.assert_array_equal(result.modes, clean[0][1])


class TestCloseAbortsPrefetch:
    def prefetch_config(self) -> RunConfig:
        return RunConfig(
            solver=SolverConfig(K=8, ff=0.95),
            backend=BackendConfig(name="threads", size=1, timeout=30.0),
            stream=StreamConfig(batch=BATCH, prefetch=2),
        )

    @staticmethod
    def _prefetch_threads():
        return [
            t
            for t in threading.enumerate()
            if t.name == "snapshot-prefetch" and t.is_alive()
        ]

    def test_crash_mid_stream_leaves_no_producer_threads(self):
        class Boom(RuntimeError):
            pass

        def poisoned(index):
            if index < 2:
                return DATA[:, index * 4 : (index + 1) * 4]
            raise Boom("stream died")

        from repro.data.streams import function_stream

        stream = function_stream(poisoned, n_dof=NDOF)
        with pytest.raises(Boom):
            with Session(self.prefetch_config()) as session:
                session.fit_stream(stream)
        deadline = 50
        while self._prefetch_threads() and deadline:
            threading.Event().wait(0.05)
            deadline -= 1
        assert not self._prefetch_threads()

    def test_drop_pending_aborts_producers(self):
        session = Session(self.prefetch_config())
        stream = iter(session._resolve_stream(DATA, True))
        next(stream)  # producer running, depth-2 buffer filling
        assert self._prefetch_threads()
        session.close(drop_pending=True)
        deadline = 50
        while self._prefetch_threads() and deadline:
            threading.Event().wait(0.05)
            deadline -= 1
        assert not self._prefetch_threads()
