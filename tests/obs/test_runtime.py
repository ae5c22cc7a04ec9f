"""Runtime lifecycle: refcounted install, null-cost disabled paths,
communicator observation."""

import gc
import itertools
import tracemalloc

import numpy as np

from repro.obs import MetricsRegistry, ObservedCommunicator, SpanTracer, runtime
from repro.smpi import SUM, create_communicator, run_spmd


class TestInstallLifecycle:
    def test_disabled_by_default(self):
        assert runtime.state() is None
        assert not runtime.installed()

    def test_install_uninstall_refcounted(self):
        runtime.install(metrics=True)
        runtime.install(metrics=True)
        assert runtime.installed()
        runtime.uninstall()
        assert runtime.installed()  # one reference still held
        runtime.uninstall()
        assert not runtime.installed()

    def test_extra_uninstall_is_harmless(self):
        runtime.uninstall()
        assert not runtime.installed()

    def test_first_install_decides_components(self):
        state = runtime.install(metrics=True, trace=False)
        assert state.registry is runtime.default_registry()
        assert state.tracer is None

    def test_nested_install_upgrades_never_downgrades(self):
        runtime.install(metrics=True, trace=False)
        state = runtime.install(metrics=False, trace=True)
        assert state.registry is not None  # kept from the outer install
        assert state.tracer is not None  # upgraded by the inner one
        runtime.uninstall()
        assert runtime.state().tracer is not None  # still active at depth 1

    def test_custom_registry_and_tracer(self):
        registry = MetricsRegistry()
        tracer = SpanTracer()
        state = runtime.install(
            metrics=True, trace=True, registry=registry, tracer=tracer
        )
        assert state.registry is registry
        assert state.tracer is tracer
        assert runtime.current_registry() is registry
        assert runtime.current_tracer() is tracer

    def test_current_fall_back_to_defaults_when_off(self):
        assert runtime.current_registry() is runtime.default_registry()
        assert runtime.current_tracer() is runtime.default_tracer()

    def test_defaults_survive_uninstall(self):
        runtime.install(metrics=True)
        runtime.current_registry().counter("kept").inc()
        runtime.uninstall()
        assert runtime.default_registry().counter("kept").value == 1.0
        runtime.reset()
        assert "kept" not in runtime.default_registry().snapshot()["counters"]


class TestSpanDispatch:
    def test_null_span_when_disabled(self):
        span = runtime.span("x", phase="qr")
        assert span is runtime.span("y", phase="svd")  # shared singleton
        with span:
            pass  # no-op

    def test_null_span_when_installed_without_tracer(self):
        runtime.install(metrics=True, trace=False)
        assert runtime.span("x") is runtime.span("y")

    def test_real_span_when_tracing(self):
        tracer = SpanTracer()
        runtime.install(metrics=False, trace=True, tracer=tracer)
        with runtime.span("x", phase="qr", rank=1):
            pass
        (event,) = tracer.events()
        assert event["name"] == "x"
        assert event["rank"] == 1

    def test_null_span_decorator_returns_fn_unchanged(self):
        def fn():
            return 42

        assert runtime.span("x")(fn) is fn


class TestDisabledOverhead:
    def test_disabled_primitives_allocate_nothing(self):
        """The hot-path contract: with observability off, `state()` and
        `span()` allocate zero bytes per call — measured, not assumed.
        The loop harness itself allocates a constant few bytes, so the
        proof is that net bytes do not grow with the iteration count."""
        assert runtime.state() is None

        def measure(n):
            gc.disable()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                # repeat(None, n): the loop variable never binds a fresh
                # int, unlike range(n) whose last value outlives the loop.
                for _ in itertools.repeat(None, n):
                    st = runtime.state()
                    if st is not None:  # mirrors instrumented call sites
                        raise AssertionError("obs unexpectedly installed")
                    with runtime.span("tsqr.local_qr", phase="qr", rank=0):
                        pass
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
                gc.enable()
            return after - before

        measure(32)  # warm up caches (interned strings, code objects)
        small = measure(100)
        large = measure(10_000)
        assert large <= small, (small, large)

    def test_disabled_communicator_is_the_raw_object(self):
        comm = create_communicator("self")
        assert not isinstance(comm, ObservedCommunicator)
        assert runtime.observe_communicator(comm) is comm


class TestObserveCommunicator:
    def test_wraps_when_metrics_active(self):
        registry = MetricsRegistry()
        runtime.install(metrics=True, registry=registry)
        comm = create_communicator("self")
        assert isinstance(comm, ObservedCommunicator)
        assert runtime.observe_communicator(comm) is comm  # idempotent

    def test_not_wrapped_when_trace_only(self):
        runtime.install(metrics=False, trace=True)
        comm = create_communicator("self")
        assert not isinstance(comm, ObservedCommunicator)

    def test_ops_meter_calls_bytes_seconds(self):
        registry = MetricsRegistry()
        runtime.install(metrics=True, registry=registry)
        comm = create_communicator("self")
        comm.bcast(np.zeros(8), root=0)
        comm.allreduce(np.ones(4), SUM)
        snap = registry.snapshot()
        assert snap["counters"]["repro.smpi.bcast.calls"]["value"] == 1.0
        assert snap["counters"]["repro.smpi.bcast.bytes"]["value"] == 64.0
        assert snap["counters"]["repro.smpi.allreduce.bytes"]["value"] == 32.0
        assert snap["histograms"]["repro.smpi.allreduce.seconds"]["count"] == 1

    def test_nonblocking_wait_is_timed(self):
        registry = MetricsRegistry()
        runtime.install(metrics=True, registry=registry)
        comm = create_communicator("self")
        comm.send(np.ones(3), dest=0)
        result = comm.irecv(source=0).wait()
        assert np.allclose(result, np.ones(3))
        snap = registry.snapshot()
        assert snap["counters"]["repro.smpi.wait.calls"]["value"] == 1.0
        assert snap["histograms"]["repro.smpi.wait.seconds"]["count"] == 1

    def test_split_and_dup_stay_observed(self):
        registry = MetricsRegistry()
        runtime.install(metrics=True, registry=registry)
        comm = create_communicator("self")
        assert isinstance(comm.split(color=0), ObservedCommunicator)
        assert isinstance(comm.dup(), ObservedCommunicator)

    def test_rank_size_and_delegation(self):
        registry = MetricsRegistry()
        runtime.install(metrics=True, registry=registry)
        comm = create_communicator("self")
        assert comm.rank == 0
        assert comm.size == 1
        assert comm.Get_rank() == 0
        assert comm.Get_size() == 1

    def test_run_spmd_ranks_all_report(self):
        registry = MetricsRegistry()
        runtime.install(metrics=True, registry=registry)

        def job(comm):
            comm.bcast(np.zeros(4) if comm.rank == 0 else None, root=0)
            comm.barrier()
            return comm.rank

        assert run_spmd(2, job) == [0, 1]
        snap = registry.snapshot()
        assert snap["counters"]["repro.smpi.bcast.calls"]["value"] == 2.0
        assert snap["counters"]["repro.smpi.barrier.calls"]["value"] == 2.0
