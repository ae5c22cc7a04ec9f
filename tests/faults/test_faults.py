"""`repro.faults`: deterministic fault injection — the typed schedule
(`FaultSpec`/`FaultConfig`), the seeded controller, the injecting
communicator proxy, and the refcounted process-global runtime."""

import pytest

from repro.config import FaultConfig, FaultSpec, RestartPolicy, RunConfig
from repro.exceptions import ConfigurationError
from repro.faults import runtime as faults_rt
from repro.faults.comm import FaultyCommunicator
from repro.faults.controller import FaultController, InjectedCrash
from repro.smpi import run_spmd
from repro.smpi.request import SendRequest
from repro.smpi.selfcomm import SelfCommunicator


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with injection off."""
    assert faults_rt.state() is None
    yield
    assert faults_rt.state() is None


def crash_config(rank=0, op="*", at=0, seed=0):
    return FaultConfig(
        enabled=True,
        seed=seed,
        schedule=(FaultSpec(kind="crash", rank=rank, op=op, at=at),),
    )


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="explode")

    def test_delay_requires_positive_delay_s(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="delay", delay_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="jitter", delay_s=-1.0)

    def test_count_must_be_positive_or_unlimited(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", count=0)
        assert FaultSpec(kind="crash", count=-1).count == -1

    def test_probability_range(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", probability=0.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", probability=1.5)

    def test_schedule_dicts_coerce_to_specs(self):
        cfg = FaultConfig(
            enabled=True,
            schedule=({"kind": "crash", "rank": 1, "op": "bcast", "at": 3},),
        )
        assert isinstance(cfg.schedule[0], FaultSpec)
        assert cfg.schedule[0].rank == 1

    def test_unknown_schedule_key_names_the_entry(self):
        with pytest.raises(ConfigurationError, match="schedule"):
            FaultConfig(enabled=True, schedule=({"kind": "crash", "nope": 1},))

    def test_active_requires_enabled_and_schedule(self):
        assert not FaultConfig().active
        assert not FaultConfig(enabled=True).active
        assert not FaultConfig(schedule=(FaultSpec(kind="crash"),)).active
        assert crash_config().active

    def test_run_config_round_trips_through_json(self):
        cfg = RunConfig(
            faults=FaultConfig(
                enabled=True,
                seed=9,
                schedule=(
                    FaultSpec(kind="crash", rank=1, op="bcast", at=3),
                    FaultSpec(kind="delay", op="send", delay_s=0.5, count=-1),
                ),
            )
        )
        assert RunConfig.from_json(cfg.to_json()) == cfg


class TestRestartPolicy:
    def test_backoff_grows_geometrically(self):
        policy = RestartPolicy(backoff_s=0.1, backoff_factor=2.0, jitter_s=0.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_jitter_is_bounded(self):
        import random

        policy = RestartPolicy(backoff_s=0.1, jitter_s=0.05)
        delay = policy.backoff_for(1, random.Random(0))
        assert 0.1 <= delay <= 0.15

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ConfigurationError):
            RestartPolicy(checkpoint_every=0)
        with pytest.raises(ConfigurationError):
            RestartPolicy(min_size=0)


class TestFaultController:
    def test_crash_fires_once(self):
        controller = FaultController(crash_config(rank=0, op="bcast", at=1))
        assert controller.apply(0, "bcast") is False  # call #0: no fault
        with pytest.raises(InjectedCrash) as excinfo:
            controller.apply(0, "bcast")
        assert excinfo.value.rank == 0
        assert excinfo.value.op == "bcast"
        # Fire-once: the same controller never crashes this spec again.
        for _ in range(5):
            assert controller.apply(0, "bcast") is False
        assert controller.snapshot()["crash"] == 1

    def test_rank_and_op_filters(self):
        controller = FaultController(crash_config(rank=2, op="allreduce"))
        assert controller.apply(0, "allreduce") is False
        assert controller.apply(2, "bcast") is False
        with pytest.raises(InjectedCrash):
            controller.apply(2, "allreduce")

    def test_drop_reported_only_for_send_ops(self):
        cfg = FaultConfig(
            enabled=True,
            schedule=(FaultSpec(kind="drop", op="*", count=-1),),
        )
        controller = FaultController(cfg)
        assert controller.apply(0, "send") is True
        assert controller.apply(0, "bcast") is False  # collectives never drop
        snap = controller.snapshot()
        assert snap["drop"] == 1

    def test_per_rank_rng_is_deterministic(self):
        cfg = crash_config(seed=42)
        a, b = FaultController(cfg), FaultController(cfg)
        assert a._rng(3).random() == b._rng(3).random()
        assert a._rng(0).random() != a._rng(1).random()


class TestFaultyCommunicator:
    def test_sticky_crash_on_one_wrapper(self):
        controller = FaultController(crash_config(rank=0, op="bcast", at=0))
        comm = FaultyCommunicator(SelfCommunicator(), controller)
        with pytest.raises(InjectedCrash):
            comm.bcast(1)
        # The rank is dead for this wrapper's lifetime — every further op
        # raises, even ones the schedule never matched.
        with pytest.raises(InjectedCrash):
            comm.barrier()
        # ... but a fresh wrapper (a restarted attempt) over the SAME
        # controller runs clean: the crash already fired.
        fresh = FaultyCommunicator(SelfCommunicator(), controller)
        assert fresh.bcast(7) == 7

    def test_dropped_isend_returns_completed_request(self):
        cfg = FaultConfig(
            enabled=True,
            schedule=(FaultSpec(kind="drop", rank=0, op="isend"),),
        )
        comm = FaultyCommunicator(SelfCommunicator(), FaultController(cfg))
        request = comm.isend("x", dest=0, tag=1)
        assert isinstance(request, SendRequest)
        assert request.wait() is None
        probe = comm.irecv(source=0, tag=1)
        assert probe.test()[0] is False
        probe.cancel()

    def test_dropped_send_is_swallowed_between_ranks(self):
        cfg = FaultConfig(
            enabled=True,
            schedule=(FaultSpec(kind="drop", rank=0, op="send", at=0),),
        )
        faults_rt.install(cfg)
        try:

            def job(comm):
                if comm.rank == 0:
                    comm.send("lost", 1, tag=1)
                    comm.send("kept", 1, tag=2)
                    return None
                got = comm.recv(source=0, tag=2)
                probe = comm.irecv(source=0, tag=1)
                assert probe.test()[0] is False
                probe.cancel()
                return got

            results = run_spmd(2, job, timeout=10.0)
            assert results[1] == "kept"
        finally:
            faults_rt.uninstall()

    def test_split_and_dup_stay_injected(self):
        controller = FaultController(crash_config())
        comm = FaultyCommunicator(SelfCommunicator(), controller)
        assert isinstance(comm.dup(), FaultyCommunicator)
        sub = comm.split(0)
        assert isinstance(sub, FaultyCommunicator)
        assert sub.controller is controller

    def test_rank_size_passthrough(self):
        comm = FaultyCommunicator(
            SelfCommunicator(), FaultController(crash_config())
        )
        assert (comm.rank, comm.size) == (0, 1)
        assert (comm.Get_rank(), comm.Get_size()) == (0, 1)


class TestRuntime:
    def test_install_is_refcounted(self):
        cfg = crash_config()
        first = faults_rt.install(cfg)
        second = faults_rt.install(cfg)
        assert first is second is faults_rt.state()
        faults_rt.uninstall()
        assert faults_rt.state() is first
        faults_rt.uninstall()
        assert faults_rt.state() is None

    def test_pinned_controller_wins(self):
        pinned = FaultController(crash_config(seed=5))
        faults_rt.install(controller=pinned)
        try:
            # A nested config install joins the pinned controller.
            assert faults_rt.install(crash_config(seed=99)) is pinned
            faults_rt.uninstall()
        finally:
            faults_rt.uninstall()

    def test_inactive_config_installs_nothing(self):
        faults_rt.install(FaultConfig())  # enabled=False: recorded no-op
        try:
            assert faults_rt.state() is None
            comm = SelfCommunicator()
            assert faults_rt.inject_communicator(comm) is comm
        finally:
            faults_rt.uninstall()

    def test_inject_wraps_once(self):
        faults_rt.install(crash_config())
        try:
            comm = faults_rt.inject_communicator(SelfCommunicator())
            assert isinstance(comm, FaultyCommunicator)
            assert faults_rt.inject_communicator(comm) is comm
        finally:
            faults_rt.uninstall()

    def test_factory_wraps_when_installed(self):
        from repro.smpi import create_communicator

        faults_rt.install(crash_config(rank=1))
        try:
            comms = create_communicator("threads", 2)
            assert all(isinstance(c, FaultyCommunicator) for c in comms)
        finally:
            faults_rt.uninstall()

    def test_injected_faults_are_metered(self):
        from repro.obs import runtime as obs_rt

        obs_rt.install(metrics=True)
        try:
            cfg = FaultConfig(
                enabled=True,
                schedule=(
                    FaultSpec(kind="delay", op="bcast", delay_s=1e-6, count=2),
                ),
            )
            controller = FaultController(cfg)
            controller.apply(0, "bcast")
            controller.apply(0, "bcast")
            snap = obs_rt.current_registry().snapshot()
            assert (
                snap["counters"]["repro.faults.injected.delay"]["value"] == 2.0
            )
        finally:
            obs_rt.uninstall()
