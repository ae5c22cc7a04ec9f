"""`repro.health.ProgressDaemon`: heartbeating every interval (idle ranks
included), retirement on clean stop, monitor-failure capture, and the
timed dead-rank declaration that beats the deadlock timeout."""

import time

import pytest

from repro.api import BackendConfig, RunConfig, Session
from repro.config import HealthConfig
from repro.health import HealthMonitor, ProgressDaemon, communicator_world
from repro.health.monitor import RANK_DEAD, RANK_SUSPECT
from repro.obs import runtime as obs_rt
from repro.smpi import FailedRankError, create_communicator
from repro.smpi.selfcomm import SelfCommunicator
from repro.smpi.world import World


class TestCommunicatorWorld:
    def test_threads_comm_resolves_world_and_rank(self):
        comms = create_communicator("threads", 2)
        world, rank = communicator_world(comms[1])
        assert world is comms[1].world
        assert rank == 1

    def test_selfcomm_degrades_to_none(self):
        assert communicator_world(SelfCommunicator()) == (None, None)

    def test_unwraps_proxy_chains(self):
        class Wrapper:
            def __init__(self, inner):
                self.inner = inner

        comms = create_communicator("threads", 2)
        world, rank = communicator_world(Wrapper(Wrapper(comms[0])))
        assert world is comms[0].world
        assert rank == 0


class TestHeartbeat:
    def test_daemon_beats_and_retires_on_stop(self):
        world = World(2)
        before = world.last_beat(0)
        daemon = ProgressDaemon(0.01, world=world, world_rank=0).start()
        try:
            deadline = time.monotonic() + 5.0
            while world.last_beat(0) <= before:
                assert time.monotonic() < deadline, "no beat within 5s"
                time.sleep(0.005)
        finally:
            daemon.stop(retire=True)
        assert 0 in world.retired_ranks()
        assert not daemon.running

    def test_stop_without_retire_leaves_rank_active(self):
        world = World(2)
        daemon = ProgressDaemon(0.01, world=world, world_rank=0).start()
        daemon.stop(retire=False)
        assert 0 not in world.retired_ranks()

    def test_idle_healthy_ranks_are_never_declared_dead(self):
        """Two healthy ranks that only sleep keep beating every
        heartbeat_interval: their peers' monitor never sees them suspect
        or dead, and fails neither."""
        cfg = RunConfig(
            backend=BackendConfig(name="threads", size=2),
            health=HealthConfig(
                enabled=True,
                heartbeat_interval=0.05,
                suspect_after=0.15,
                dead_after=0.3,
            ),
        )

        def job(session):
            world, _ = communicator_world(session.comm)
            seen = set()
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                if session.comm.rank == 0:
                    seen.update(world.health.observe().values())
                time.sleep(0.01)
            return seen, set(world.failed_ranks())

        (seen, failed), _ = Session.run(cfg, job)
        assert not seen & {RANK_SUSPECT, RANK_DEAD}, seen
        assert failed == set()

    def test_beats_are_metered(self):
        obs_rt.install(metrics=True)
        try:
            world = World(1)
            daemon = ProgressDaemon(0.01, world=world, world_rank=0).start()
            time.sleep(0.1)
            daemon.stop()
            counters = obs_rt.default_registry().snapshot()["counters"]
            assert counters["repro.health.beats"]["value"] >= 1
        finally:
            obs_rt.uninstall()


class TestMonitorFailure:
    def test_failing_check_is_counted_and_logged_once(self, caplog):
        class BrokenMonitor:
            calls = 0

            def check(self):
                BrokenMonitor.calls += 1
                raise RuntimeError("monitor exploded")

        obs_rt.install(metrics=True)
        try:
            world = World(1)
            with caplog.at_level("WARNING", logger="repro.health.daemon"):
                daemon = ProgressDaemon(
                    0.005, world=world, world_rank=0, monitor=BrokenMonitor()
                ).start()
                try:
                    deadline = time.monotonic() + 5.0
                    while BrokenMonitor.calls < 3:
                        assert time.monotonic() < deadline, "checks stopped"
                        time.sleep(0.005)
                finally:
                    daemon.stop()
            counters = obs_rt.default_registry().snapshot()["counters"]
            assert counters["repro.errors.health"]["value"] >= 3
        finally:
            obs_rt.uninstall()
        warnings = [r for r in caplog.records if r.name == "repro.health.daemon"]
        assert len(warnings) == 1
        assert warnings[0].levelname == "WARNING"
        assert "monitor exploded" in caplog.text


class TestTimedDeclaration:
    def test_dead_rank_declared_before_deadlock_timeout(self):
        """Acceptance: with a 30s deadlock timeout, a blocked peer must be
        woken by the health monitor in well under a second."""
        comms = create_communicator("threads", 2, timeout=30.0)
        comm = comms[0]
        world, world_rank = communicator_world(comm)
        cfg = HealthConfig(
            enabled=True,
            heartbeat_interval=0.01,
            suspect_after=0.03,
            dead_after=0.08,
        )
        monitor = HealthMonitor(world, cfg)
        world.heartbeat(1)  # rank 1 was alive once, then fell silent
        daemon = ProgressDaemon(
            cfg.heartbeat_interval,
            world=world,
            world_rank=world_rank,
            monitor=monitor,
        ).start()
        start = time.monotonic()
        try:
            with pytest.raises(FailedRankError, match="rank 1"):
                comm.recv(source=1, tag=9)
        finally:
            daemon.stop()
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, (
            f"monitor took {elapsed:.3f}s — the 30s timeout did the work"
        )
