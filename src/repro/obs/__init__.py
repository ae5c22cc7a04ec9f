"""repro.obs — always-on observability: metrics registry + span tracing.

The layer the ROADMAP's serving frontend, elastic/failover and GPU
dispatch items land on: a thread-safe :class:`MetricsRegistry`
(counters/gauges/log-bucket histograms, lock-striped, rolling rates), a
:class:`SpanTracer` with per-rank phase timelines and Chrome-trace
(Perfetto) export, and the install/uninstall runtime that keeps the
instrumented hot paths at zero cost while observability is off.

Quickstart::

    from repro import obs

    obs.install(metrics=True, trace=True)
    ...  # run a Session / run_spmd job
    obs.uninstall()

    print("\\n".join(obs.default_tracer().summary_lines()))
    obs.default_tracer().write_chrome_trace("trace.json")
    snapshot = obs.default_registry().snapshot()

or set :class:`repro.config.ObservabilityConfig` on a
:class:`~repro.config.RunConfig` (the ``obs`` section) and let
:class:`repro.api.Session` manage the lifecycle — ``Session.metrics``
and ``Session.dump_trace(path)`` expose the results.  The CLI surfaces
the same via ``repro profile`` and ``--metrics-json``/``--trace``.

Communicator metrics (``repro.smpi.<op>.*``) come from
:class:`ObservedCommunicator`, a proxy on :mod:`repro.smpi.intercept`.

Metric naming convention: ``repro.<subsystem>.<name>``.
"""

from .comm import ObservedCommunicator
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import (
    ObsState,
    current_registry,
    current_tracer,
    default_registry,
    default_tracer,
    install,
    installed,
    observe_communicator,
    reset,
    span,
    state,
    uninstall,
)
from .tracing import (
    PHASES,
    SpanTracer,
    phases_per_rank,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservedCommunicator",
    "ObsState",
    "PHASES",
    "SpanTracer",
    "current_registry",
    "current_tracer",
    "default_registry",
    "default_tracer",
    "install",
    "installed",
    "observe_communicator",
    "phases_per_rank",
    "reset",
    "span",
    "state",
    "uninstall",
    "validate_chrome_trace",
]
