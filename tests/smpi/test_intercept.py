"""The shared interception layer: op-table conformance, metering, and
one layer of each concern per wrapper chain."""

import inspect
import time

import numpy as np
import pytest

from repro.api import (
    BackendConfig,
    HealthConfig,
    ObservabilityConfig,
    RestartPolicy,
    RunConfig,
    Session,
)
from repro.faults.comm import FaultyCommunicator
from repro.obs import MetricsRegistry, ObservedCommunicator
from repro.obs import runtime as obs_rt
from repro.smpi import (
    SUM,
    CommTracer,
    Communicator,
    SelfCommunicator,
    create_communicator,
)
from repro.smpi.intercept import OPS, InterceptedRequest
from repro.smpi.mpi import Mpi4pyCommunicator

#: Public communicator methods that move no data: the proxies delegate
#: them (``split``/``dup`` re-wrap the result).
PASSTHROUGH = {"split", "dup", "Get_rank", "Get_size"}


@pytest.fixture(autouse=True)
def clean_obs_state():
    yield
    while obs_rt.installed():
        obs_rt.uninstall()
    obs_rt.reset()


def _public_methods(cls):
    return {
        name
        for name, _ in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    }


@pytest.mark.parametrize(
    "backend", [Communicator, SelfCommunicator, Mpi4pyCommunicator]
)
def test_every_backend_method_is_intercepted_or_passed_through(backend):
    methods = _public_methods(backend)
    assert methods - set(OPS) - PASSTHROUGH == set()
    # Every backend implements every op the proxies intercept.
    assert set(OPS) <= methods


_BLOCK = np.ones((2, 3))

#: One call per op on a wrapped SelfCommunicator; requests are completed.
_CALLS = {
    "send": lambda c: c.send(1.0, 0, tag=1),
    "isend": lambda c: c.isend(1.0, 0, tag=1).wait(),
    "recv": lambda c: (c.inner.send(1.0, 0, tag=1), c.recv(0, 1)),
    "irecv": lambda c: (c.inner.send(1.0, 0, tag=1), c.irecv(0, 1).wait()),
    "bcast": lambda c: c.bcast(_BLOCK, root=0),
    "gather": lambda c: c.gather(_BLOCK, root=0),
    "gatherv_rows": lambda c: c.gatherv_rows(_BLOCK, root=0),
    "allreduce": lambda c: c.allreduce(_BLOCK, SUM),
    "barrier": lambda c: c.barrier(),
}


class _SpyController:
    """Stands in for a FaultController: remembers every op it is asked
    about and never injects anything."""

    def __init__(self):
        self.ops = []

    def apply(self, rank, op):
        self.ops.append(op)
        return False


def test_call_table_covers_the_op_table():
    assert set(_CALLS) == set(OPS)


@pytest.mark.parametrize("name", sorted(OPS))
def test_tracer_intercepts(name):
    tracer = CommTracer(SelfCommunicator())
    _CALLS[name](tracer)
    assert tracer.records, name


@pytest.mark.parametrize("name", sorted(OPS))
def test_observer_intercepts(name):
    registry = MetricsRegistry()
    _CALLS[name](ObservedCommunicator(SelfCommunicator(), registry))
    counters = registry.snapshot()["counters"]
    assert counters[f"repro.smpi.{name}.calls"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(OPS))
def test_injector_intercepts(name):
    spy = _SpyController()
    _CALLS[name](FaultyCommunicator(SelfCommunicator(), spy))
    assert spy.ops == [name]


class TestReceiveMetering:
    def test_recv_meters_the_message_in_both_call_styles(self):
        obs_rt.install(metrics=True, registry=MetricsRegistry())
        registry = obs_rt.current_registry()
        comm = create_communicator("self")
        payload = np.zeros(1000)  # 8000 bytes
        comm.send(payload, 0, tag=1)
        comm.send(payload, 0, tag=2)
        comm.recv(0, 1)
        comm.recv(source=0, tag=2)
        counters = registry.snapshot()["counters"]
        assert counters["repro.smpi.recv.calls"]["value"] == 2.0
        assert counters["repro.smpi.recv.bytes"]["value"] == 16000.0

    def test_irecv_meters_nothing_in_both_call_styles(self):
        obs_rt.install(metrics=True, registry=MetricsRegistry())
        registry = obs_rt.current_registry()
        comm = create_communicator("self")
        comm.send(np.zeros(1000), 0, tag=1)
        comm.send(np.zeros(1000), 0, tag=2)
        comm.irecv(0, 1).wait()
        comm.irecv(source=0, tag=2).wait()
        counters = registry.snapshot()["counters"]
        assert counters["repro.smpi.irecv.calls"]["value"] == 2.0
        assert counters["repro.smpi.irecv.bytes"]["value"] == 0.0
        assert counters["repro.smpi.wait.calls"]["value"] == 2.0


def _chain(comm):
    kinds = []
    while comm is not None:
        kinds.append(type(comm).__name__)
        comm = getattr(comm, "inner", None)
    return kinds


class TestOneLayerPerConcern:
    def test_traced_restart_run_meters_each_call_once(self):
        config = RunConfig(
            backend=BackendConfig(name="threads", size=2),
            obs=ObservabilityConfig(metrics=True),
        )

        def job(session):
            session.comm.bcast(np.zeros(4) if session.comm.rank == 0 else None)
            return _chain(session.comm)

        results, tracers = Session.run(
            config, job, trace=True, restart_policy=RestartPolicy()
        )
        counters = obs_rt.default_registry().snapshot()["counters"]
        assert counters["repro.smpi.bcast.calls"]["value"] == 2.0
        for chain in results:
            assert sorted(chain) == sorted(
                ["CommTracer", "ObservedCommunicator", "Communicator"]
            )
        assert all(len(t.records) == 1 for t in tracers)

    def test_traced_session_keeps_heartbeating(self):
        config = RunConfig(
            backend=BackendConfig(name="threads", size=2),
            obs=ObservabilityConfig(metrics=True),
            health=HealthConfig(enabled=True, heartbeat_interval=0.01),
        )

        def job(session):
            time.sleep(0.1)
            return session.comm.rank

        results, _ = Session.run(config, job, trace=True)
        assert results == [0, 1]
        counters = obs_rt.default_registry().snapshot()["counters"]
        assert counters["repro.health.beats"]["value"] > 0


class TestTracedRequests:
    def test_cancel_reaches_the_inner_receive(self):
        comm = CommTracer(create_communicator("threads", 1))
        request = comm.irecv(source=0, tag=5)
        assert isinstance(request, InterceptedRequest)
        request.cancel()
        # The inner RecvRequest is abandoned: waiting returns at once
        # instead of timing out on a message that never comes.
        assert request.wait(timeout=0.5) is None
