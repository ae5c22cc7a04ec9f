"""`repro.health.ProgressDaemon`: heartbeating, background completion of
overlapped pipelined steps (no explicit access), retirement on clean
stop, error capture, and the timed dead-rank declaration that beats the
deadlock timeout."""

import threading
import time

import numpy as np
import pytest

from repro.config import HealthConfig, SolverConfig
from repro.core import ParSVDParallel
from repro.health import HealthMonitor, ProgressDaemon, communicator_world
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


class TestAdvance:
    def test_advance_error_is_captured_and_daemon_keeps_beating(self, caplog):
        world = World(1)

        def exploding():
            raise ValueError("poisoned step")

        def errors():
            counters = obs_rt.default_registry().snapshot()["counters"]
            return counters.get("repro.errors.health", {}).get("value", 0)

        obs_rt.install(metrics=True)
        try:
            errors_before = errors()
            with caplog.at_level("WARNING", logger="repro.health.daemon"):
                daemon = ProgressDaemon(
                    0.01, world=world, world_rank=0, advance=exploding
                ).start()
                try:
                    deadline = time.monotonic() + 5.0
                    while daemon.error is None:
                        assert time.monotonic() < deadline, "error never captured"
                        time.sleep(0.005)
                    assert isinstance(daemon.error, ValueError)
                    before = world.last_beat(0)
                    deadline = time.monotonic() + 5.0
                    while world.last_beat(0) <= before:
                        assert time.monotonic() < deadline, "beat stopped after error"
                        time.sleep(0.005)
                finally:
                    daemon.stop()
            # One failed step, counted once: the daemon stops advancing.
            assert errors() - errors_before == 1
        finally:
            obs_rt.uninstall()
        warnings = [r for r in caplog.records if r.name == "repro.health.daemon"]
        assert len(warnings) == 1
        assert warnings[0].levelname == "WARNING"
        assert "poisoned step" in caplog.text

    def test_daemon_completes_overlapped_step_without_access(self):
        """The tentpole behaviour: with daemons running, an overlap=True
        step posted by ``incorporate_data`` reaches completion without
        anyone touching the driver again."""
        ranks = 2
        comms = create_communicator("threads", ranks)
        solver = SolverConfig(K=4, ff=1.0, qr_variant="gather", overlap=True)
        drivers = [ParSVDParallel(c, solver=solver) for c in comms]
        rng = np.random.default_rng(3)
        data = rng.standard_normal((32, 12))

        def feed(i):
            rows = np.array_split(data, ranks, axis=0)[i]
            drivers[i].initialize(rows[:, :6])
            drivers[i].incorporate_data(rows[:, 6:])  # posts, never finalizes

        threads = [
            threading.Thread(target=feed, args=(i,)) for i in range(ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert any(d.pending_update for d in drivers)

        daemons = []
        try:
            for i, (comm, driver) in enumerate(zip(comms, drivers)):
                world, world_rank = communicator_world(comm)
                daemons.append(
                    ProgressDaemon(
                        0.005,
                        world=world,
                        world_rank=world_rank,
                        advance=driver.try_finalize_pending,
                    ).start()
                )
            deadline = time.monotonic() + 10.0
            while any(d.pending_update for d in drivers):
                assert time.monotonic() < deadline, "daemons never finished it"
                time.sleep(0.005)
        finally:
            for daemon in daemons:
                daemon.stop()
        for daemon in daemons:
            assert daemon.error is None
        for driver in drivers:
            assert driver.singular_values.shape == (4,)


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
