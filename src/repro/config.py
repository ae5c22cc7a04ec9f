"""Configuration objects for the streaming/distributed/randomized SVD.

The paper exposes the following knobs (section 3 and 4.3):

``K``
    Number of retained left singular vectors ("modes").
``ff``
    Forget factor of the streaming (Levy--Lindenbaum) update, in ``(0, 1]``.
    ``ff = 1.0`` makes the streaming result converge to the one-shot SVD of
    all snapshots; smaller values discount older batches.  The paper uses
    ``ff = 0.95``.
``low_rank``
    Whether dense SVDs inside the pipeline are replaced by the randomized
    low-rank SVD of section 3.3.
``r1``
    APMOS truncation of the locally computed right singular vectors before
    the MPI gather (paper default: 50 columns).  The paper's second APMOS
    truncation, ``r2``, is the number of global modes; the streaming
    parallel class retains ``K`` (it passes ``r2 = K`` to
    :func:`~repro.core.apmos.apmos_svd`).
``oversampling`` / ``power_iters``
    Standard randomized-range-finder parameters (Halko et al.); the paper's
    listing uses the plain sketch, which corresponds to
    ``oversampling = 0, power_iters = 0``; we default to a modest
    oversampling of 10 which strictly improves accuracy at negligible cost.
``seed``
    Seed for the randomized sketches.  Parallel ranks derive independent
    child streams, so results are reproducible for a fixed rank count.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Optional, Union

from .exceptions import ConfigurationError
from .smpi.mailbox import DEFAULT_TIMEOUT

__all__ = [
    "SVDConfig",
    "SolverConfig",
    "BackendConfig",
    "StreamConfig",
    "ObservabilityConfig",
    "FaultSpec",
    "FaultConfig",
    "HealthConfig",
    "RestartPolicy",
    "RunConfig",
    "ServingConfig",
    "TenantSpec",
    "RESTART_MODES",
    "DEFAULT_FORGET_FACTOR",
    "DEFAULT_R1",
    "FAULT_KINDS",
    "GATHER_POLICIES",
    "QR_VARIANTS",
    "validate_parallel_options",
]

#: Forget factor used throughout the paper's experiments (section 3.1).
DEFAULT_FORGET_FACTOR = 0.95
#: APMOS local right-vector truncation used in the paper (section 3.2).
DEFAULT_R1 = 50

#: Valid mode-gathering policies of :class:`~repro.core.parallel.ParSVDParallel`.
GATHER_POLICIES = ("bcast", "root", "none")
#: Valid distributed-QR variants (paper Listing 4 vs binary-tree TSQR).
QR_VARIANTS = ("gather", "tree")


def validate_parallel_options(
    qr_variant: str,
    gather: str,
    apmos_group_size: Optional[int],
) -> None:
    """Validate :class:`~repro.core.parallel.ParSVDParallel` string/int knobs.

    Raises :class:`~repro.exceptions.ConfigurationError` (never
    ``ShapeError``: these are configuration mistakes, not bad data) so
    callers can discriminate the failure class.
    """
    if qr_variant not in QR_VARIANTS:
        raise ConfigurationError(
            f"qr_variant must be one of {QR_VARIANTS}, got {qr_variant!r}"
        )
    if gather not in GATHER_POLICIES:
        raise ConfigurationError(
            f"gather must be one of {GATHER_POLICIES}, got {gather!r}"
        )
    if apmos_group_size is not None:
        if not isinstance(apmos_group_size, int) or isinstance(
            apmos_group_size, bool
        ):
            raise ConfigurationError(
                f"apmos_group_size must be an int or None, got "
                f"{apmos_group_size!r}"
            )
        if apmos_group_size < 1:
            raise ConfigurationError(
                f"apmos_group_size must be >= 1, got {apmos_group_size}"
            )


@dataclasses.dataclass(frozen=True)
class SVDConfig:
    """Immutable, validated bundle of SVD algorithm parameters.

    Parameters
    ----------
    K:
        Number of modes (truncated left singular vectors) to track.
    ff:
        Streaming forget factor in ``(0, 1]``.
    low_rank:
        Use the randomized low-rank SVD for the inner dense factorizations.
    r1:
        APMOS local truncation (see module docstring).
    oversampling:
        Extra sketch columns beyond the target rank for the randomized SVD.
    power_iters:
        Number of power iterations of the randomized range finder.
    seed:
        Base seed for randomized sketches; ``None`` draws fresh entropy.

    Examples
    --------
    >>> cfg = SVDConfig(K=10)
    >>> cfg.ff
    0.95
    >>> cfg.replace(ff=1.0).ff
    1.0
    """

    K: int = 10
    ff: float = DEFAULT_FORGET_FACTOR
    low_rank: bool = False
    r1: int = DEFAULT_R1
    oversampling: int = 10
    power_iters: int = 0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.K, (int,)) or isinstance(self.K, bool):
            raise ConfigurationError(f"K must be an int, got {self.K!r}")
        if self.K <= 0:
            raise ConfigurationError(f"K must be positive, got {self.K}")
        if not (0.0 < float(self.ff) <= 1.0):
            raise ConfigurationError(
                f"forget factor ff must lie in (0, 1], got {self.ff}"
            )
        if self.r1 <= 0:
            raise ConfigurationError(f"r1 must be positive, got {self.r1}")
        if self.oversampling < 0:
            raise ConfigurationError(
                f"oversampling must be nonnegative, got {self.oversampling}"
            )
        if self.power_iters < 0:
            raise ConfigurationError(
                f"power_iters must be nonnegative, got {self.power_iters}"
            )
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")

    def replace(self, **changes: object) -> "SVDConfig":
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def as_dict(self) -> dict:
        """Return the configuration as a plain dictionary."""
        return dataclasses.asdict(self)


class _SectionMixin:
    """Shared conveniences of the frozen config dataclasses."""

    def replace(self, **changes: object):
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def as_dict(self) -> dict:
        """Return the configuration as a plain dictionary."""
        return dataclasses.asdict(self)  # type: ignore[call-overload]


def _from_section_dict(cls, section: str, payload: dict):
    """Build a config dataclass from a plain dict, rejecting unknown keys
    with a :class:`~repro.exceptions.ConfigurationError` that names the
    offending key (so ``repro config validate`` failures are actionable).
    Wrong-typed values (e.g. a string where a float belongs) surface as
    the same error class, never a raw ``TypeError``/``ValueError``."""
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{section!r} section must be a mapping, got {type(payload).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {section!r} section; "
            f"valid keys: {sorted(known)}"
        )
    try:
        return cls(**payload)
    except ConfigurationError as exc:
        # Field validation errors name the field ("K must be positive")
        # but not where it lives — prefix the section so `repro config
        # validate` failures point at the right part of the file.
        raise ConfigurationError(f"in {section!r} section: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"invalid value in {section!r} section: {exc}"
        ) from exc


@dataclasses.dataclass(frozen=True)
class SolverConfig(SVDConfig):
    """All knobs of a streaming/distributed SVD run, frozen and validated.

    Extends :class:`SVDConfig` (the paper's algorithm parameters) with the
    parallel driver's run options, so one object fully describes how
    :class:`~repro.core.parallel.ParSVDParallel` factors its stream.

    Parameters
    ----------
    qr_variant:
        Distributed-QR flavour: ``"gather"`` (paper Listing 4, default) or
        ``"tree"`` (binary-reduction TSQR).
    gather:
        Mode-assembly policy for :attr:`~repro.core.parallel.
        ParSVDParallel.modes`: ``"bcast"`` (default), ``"root"`` or
        ``"none"`` (the local block, as a read-only view).
    apmos_group_size:
        Group size of the APMOS gather that initialises the run, or
        ``None`` (default) for the paper's single gather at rank 0.  With
        ``1 < apmos_group_size < p`` each group of that many ranks first
        reduces its ``W`` at a leader (:func:`~repro.core.apmos.grouped`);
        ``1`` or ``>= p`` also run the single gather.

    The streaming step always runs allocation-free in a per-driver
    workspace and finishes in the call that posts it (see
    :class:`~repro.core.parallel.ParSVDParallel`); no option selects
    another lane.

    Examples
    --------
    >>> SolverConfig(K=10, ff=1.0, qr_variant="tree").gather
    'bcast'
    """

    qr_variant: str = "gather"
    gather: str = "bcast"
    apmos_group_size: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_parallel_options(
            self.qr_variant, self.gather, self.apmos_group_size
        )

    @classmethod
    def from_svd_config(cls, config: SVDConfig, **options: object) -> "SolverConfig":
        """Lift a plain :class:`SVDConfig` (e.g. from a checkpoint) into a
        :class:`SolverConfig`, with run options as keyword overrides."""
        if isinstance(config, SolverConfig) and not options:
            return config
        base = {
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
        }
        base.update(options)
        return cls(**base)  # type: ignore[arg-type]


@dataclasses.dataclass(frozen=True)
class BackendConfig(_SectionMixin):
    """Which communicator substrate a run executes on, and its knobs.

    Parameters
    ----------
    name:
        Registered backend name — ``"threads"`` (in-process SPMD,
        default), ``"self"`` (zero-overhead single rank) or ``"mpi4py"``
        (real MPI under a launcher); see :data:`repro.smpi.BACKENDS`.
    size:
        Number of ranks.  Must be 1 for ``"self"``; for ``"mpi4py"`` it is
        validated against the launcher's world size.
    timeout:
        Mailbox deadlock timeout in seconds (``"threads"`` backend).
    irecv_buffer_bytes:
        Receive-buffer size preallocated per preposted ``irecv`` on the
        ``"mpi4py"`` adapter (whose pickle-mode ``irecv`` cannot
        probe-size and truncates larger messages).  Raise it when
        preposting receives for large payloads; other backends probe
        exactly and ignore it.
    """

    name: str = "threads"
    size: int = 1
    timeout: float = DEFAULT_TIMEOUT
    irecv_buffer_bytes: int = 1 << 24

    def __post_init__(self) -> None:
        from .smpi.factory import BACKENDS

        if self.name not in BACKENDS:
            raise ConfigurationError(
                f"backend name must be one of {BACKENDS}, got {self.name!r}"
            )
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise ConfigurationError(
                f"backend size must be an int, got {self.size!r}"
            )
        if self.size < 1:
            raise ConfigurationError(
                f"backend size must be >= 1, got {self.size}"
            )
        if self.name == "self" and self.size != 1:
            raise ConfigurationError(
                f"the 'self' backend is single-rank by construction; got "
                f"size {self.size} (use 'threads' or 'mpi4py')"
            )
        if (
            not isinstance(self.timeout, (int, float))
            or isinstance(self.timeout, bool)
            or not self.timeout > 0.0
        ):
            raise ConfigurationError(
                f"backend timeout must be a positive number, got {self.timeout!r}"
            )
        if (
            not isinstance(self.irecv_buffer_bytes, int)
            or isinstance(self.irecv_buffer_bytes, bool)
            or self.irecv_buffer_bytes < 1
        ):
            raise ConfigurationError(
                f"irecv_buffer_bytes must be a positive int, got "
                f"{self.irecv_buffer_bytes!r}"
            )


@dataclasses.dataclass(frozen=True)
class StreamConfig(_SectionMixin):
    """How snapshot batches reach the solver.

    Parameters
    ----------
    source:
        Path to an on-disk snapshot container
        (:class:`~repro.data.io.SnapshotDataset`), or ``None`` (default)
        when the caller supplies the data/stream directly to
        :meth:`~repro.api.Session.fit_stream`.
    batch:
        Batch size (columns per streaming update) used when slicing a
        matrix or container into batches; ``None`` when the caller hands
        over an already-batched stream.
    prefetch:
        Background prefetch depth: ``> 0`` wraps the rank-local stream in
        a :class:`~repro.data.streams.PrefetchStream` of that depth so
        batch production overlaps compute; ``0`` (default) disables it.
    """

    source: Optional[str] = None
    batch: Optional[int] = None
    prefetch: int = 0

    def __post_init__(self) -> None:
        if self.source is not None and not isinstance(self.source, str):
            raise ConfigurationError(
                f"stream source must be a path string or None, got "
                f"{self.source!r}"
            )
        if self.batch is not None:
            if not isinstance(self.batch, int) or isinstance(self.batch, bool):
                raise ConfigurationError(
                    f"stream batch must be an int or None, got {self.batch!r}"
                )
            if self.batch < 1:
                raise ConfigurationError(
                    f"stream batch must be >= 1, got {self.batch}"
                )
        if (
            not isinstance(self.prefetch, int)
            or isinstance(self.prefetch, bool)
            or self.prefetch < 0
        ):
            raise ConfigurationError(
                f"stream prefetch depth must be an int >= 0, got "
                f"{self.prefetch!r}"
            )


@dataclasses.dataclass(frozen=True)
class ObservabilityConfig(_SectionMixin):
    """What the run measures about itself (the :mod:`repro.obs` layer).

    Parameters
    ----------
    metrics:
        Record counters/gauges/histograms into the process-global
        :class:`~repro.obs.MetricsRegistry` — per-collective call/byte/
        latency rollups, streaming-step timings, prefetch and serving
        metrics.  Communicators are wrapped in the metrics observer only
        while this is on; the default ``False`` keeps the hot path
        untouched.
    trace:
        Record phase-tagged spans into the process-global
        :class:`~repro.obs.SpanTracer`, exportable as Chrome-trace JSON
        (``Session.dump_trace`` / ``--trace``).
    """

    metrics: bool = False
    trace: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.metrics, bool):
            raise ConfigurationError(
                f"metrics must be a bool, got {self.metrics!r}"
            )
        if not isinstance(self.trace, bool):
            raise ConfigurationError(
                f"trace must be a bool, got {self.trace!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any observability is requested."""
        return self.metrics or self.trace


#: Fault kinds the :mod:`repro.faults` injector understands.
FAULT_KINDS = ("delay", "jitter", "drop", "crash")


@dataclasses.dataclass(frozen=True)
class FaultSpec(_SectionMixin):
    """One scheduled fault: what to inject, where, and when.

    A spec matches a communicator operation when the op name matches
    ``op`` (``"*"`` = any), the calling rank matches ``rank`` (``-1`` =
    any rank) and the rank's per-spec match counter has reached ``at``.
    From then on it fires on ``count`` consecutive matching calls
    (``-1`` = every subsequent one; ``crash`` always fires exactly once
    per run).

    Parameters
    ----------
    kind:
        ``"delay"`` (sleep ``delay_s`` before the op), ``"jitter"``
        (sleep a seeded-uniform draw from ``[0, delay_s]`` — the
        slow-rank model), ``"drop"`` (swallow a send: the message is
        never delivered) or ``"crash"`` (raise
        :class:`repro.faults.InjectedCrash` — the rank dies).
    rank:
        World rank the fault applies to, or ``-1`` for every rank.
    op:
        Communicator op name (``"bcast"``, ``"isend"``, ...) or ``"*"``.
    at:
        Zero-based index of the first matching call that fires.
    count:
        Number of firings from ``at`` on (``-1`` = unlimited).
    delay_s:
        Sleep magnitude for ``delay``/``jitter``.
    probability:
        Per-call firing probability in ``(0, 1]``, drawn from the
        deterministic per-rank stream seeded by ``FaultConfig.seed``.
    """

    kind: str = "delay"
    rank: int = -1
    op: str = "*"
    at: int = 0
    count: int = 1
    delay_s: float = 0.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise ConfigurationError(
                f"fault rank must be an int, got {self.rank!r}"
            )
        if self.rank < -1:
            raise ConfigurationError(
                f"fault rank must be >= -1 (-1 = any rank), got {self.rank}"
            )
        if not isinstance(self.op, str) or not self.op:
            raise ConfigurationError(
                f"fault op must be an op name or '*', got {self.op!r}"
            )
        if (
            not isinstance(self.at, int)
            or isinstance(self.at, bool)
            or self.at < 0
        ):
            raise ConfigurationError(
                f"fault at must be an int >= 0, got {self.at!r}"
            )
        if (
            not isinstance(self.count, int)
            or isinstance(self.count, bool)
            or (self.count < 1 and self.count != -1)
        ):
            raise ConfigurationError(
                f"fault count must be >= 1 or -1 (unlimited), got {self.count!r}"
            )
        if (
            not isinstance(self.delay_s, (int, float))
            or isinstance(self.delay_s, bool)
            or self.delay_s < 0.0
        ):
            raise ConfigurationError(
                f"fault delay_s must be a number >= 0, got {self.delay_s!r}"
            )
        if self.kind in ("delay", "jitter") and not self.delay_s > 0.0:
            raise ConfigurationError(
                f"a {self.kind!r} fault needs delay_s > 0, got {self.delay_s}"
            )
        if (
            not isinstance(self.probability, (int, float))
            or isinstance(self.probability, bool)
            or not (0.0 < float(self.probability) <= 1.0)
        ):
            raise ConfigurationError(
                f"fault probability must lie in (0, 1], got {self.probability!r}"
            )


@dataclasses.dataclass(frozen=True)
class FaultConfig(_SectionMixin):
    """Deterministic fault-injection plan (the :mod:`repro.faults` layer).

    Disabled by default: with ``enabled=False`` (or an empty schedule)
    communicators are handed out unwrapped and the run is untouched.
    Enabled, every communicator the factories create is wrapped in a
    :class:`repro.faults.FaultyCommunicator` sharing one seeded
    controller, so a schedule replays identically for a fixed
    ``(seed, schedule, rank count)``.

    Parameters
    ----------
    enabled:
        Master switch for injection.
    seed:
        Seed of the per-rank random streams deciding probabilistic
        faults and jitter magnitudes.
    schedule:
        Tuple of :class:`FaultSpec` (plain dicts are coerced, so the
        section round-trips through JSON).
    """

    enabled: bool = False
    seed: int = 0
    schedule: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ConfigurationError(
                f"faults enabled must be a bool, got {self.enabled!r}"
            )
        if (
            not isinstance(self.seed, int)
            or isinstance(self.seed, bool)
            or self.seed < 0
        ):
            raise ConfigurationError(
                f"faults seed must be an int >= 0, got {self.seed!r}"
            )
        if not isinstance(self.schedule, (list, tuple)):
            raise ConfigurationError(
                f"faults schedule must be a sequence of fault specs, got "
                f"{type(self.schedule).__name__}"
            )
        specs = []
        for index, entry in enumerate(self.schedule):
            if isinstance(entry, FaultSpec):
                specs.append(entry)
            elif isinstance(entry, dict):
                specs.append(
                    _from_section_dict(FaultSpec, f"faults.schedule[{index}]", entry)
                )
            else:
                raise ConfigurationError(
                    f"faults.schedule[{index}] must be a FaultSpec or "
                    f"mapping, got {type(entry).__name__}"
                )
        object.__setattr__(self, "schedule", tuple(specs))

    @property
    def active(self) -> bool:
        """Whether injection is actually requested (enabled + nonempty)."""
        return self.enabled and bool(self.schedule)


@dataclasses.dataclass(frozen=True)
class HealthConfig(_SectionMixin):
    """Liveness monitoring of a running SPMD job (the :mod:`repro.health`
    layer).

    Disabled by default: nothing beats, nothing polls, the hot path is
    untouched.  Enabled, every :class:`~repro.api.Session` starts a
    background daemon that, every ``heartbeat_interval``, publishes a
    monotonic heartbeat on this rank's mailbox and classifies its peers
    from their beat ages:

    ``alive``
        beat age ``<= straggler_factor * heartbeat_interval``.
    ``straggler``
        late, but within ``suspect_after`` — the slow-rank signal.
    ``suspect``
        beat age ``> suspect_after`` — serving routes flushes away from
        shard groups containing such ranks.
    ``dead``
        beat age ``> dead_after`` — the monitor drives
        :meth:`~repro.smpi.world.World.fail_rank` proactively, waking
        blocked collectives long before the mailbox ``DeadlockError``
        timeout.

    Parameters
    ----------
    enabled:
        Master switch for heartbeat publication and monitoring.
    heartbeat_interval:
        Period (seconds) between a rank's liveness beats and its
        monitor checks.
    suspect_after:
        Beat age (seconds) past which a peer is classified ``suspect``.
    straggler_factor:
        Multiple of ``heartbeat_interval`` a beat may lag before the
        peer counts as a ``straggler``.
    dead_after:
        Beat age (seconds) past which a peer is declared ``dead`` and
        failed; ``None`` (default) derives ``2 * suspect_after``.
    """

    enabled: bool = False
    heartbeat_interval: float = 0.05
    suspect_after: float = 1.0
    straggler_factor: float = 4.0
    dead_after: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ConfigurationError(
                f"health enabled must be a bool, got {self.enabled!r}"
            )
        for name in ("heartbeat_interval", "suspect_after", "straggler_factor"):
            value = getattr(self, name)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not value > 0.0
            ):
                raise ConfigurationError(
                    f"health {name} must be a positive number, got {value!r}"
                )
        if self.dead_after is not None and (
            not isinstance(self.dead_after, (int, float))
            or isinstance(self.dead_after, bool)
            or not self.dead_after > 0.0
        ):
            raise ConfigurationError(
                f"health dead_after must be a positive number or None, got "
                f"{self.dead_after!r}"
            )
        if (
            self.dead_after is not None
            and self.dead_after < self.suspect_after
        ):
            raise ConfigurationError(
                f"health dead_after ({self.dead_after}) must be >= "
                f"suspect_after ({self.suspect_after})"
            )

    @property
    def effective_dead_after(self) -> float:
        """The death threshold, deriving ``2 * suspect_after`` from
        ``dead_after=None``."""
        if self.dead_after is not None:
            return float(self.dead_after)
        return 2.0 * float(self.suspect_after)


@dataclasses.dataclass(frozen=True)
class TenantSpec(_SectionMixin):
    """One tenant of the network serving frontend (:mod:`repro.net`).

    Parameters
    ----------
    name:
        Tenant identifier — appears in per-tenant request counters
        (``repro.net.tenant.<name>.*``) and the ``/metrics`` snapshot.
    key:
        API key the tenant authenticates with (``Authorization: Bearer
        <key>`` or ``X-API-Key: <key>``).
    """

    name: str = ""
    key: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"tenant name must be a non-empty string, got {self.name!r}"
            )
        if not self.name.replace("_", "").replace("-", "").isalnum():
            raise ConfigurationError(
                f"tenant name must be alphanumeric (plus '_'/'-'), got "
                f"{self.name!r}"
            )
        if not isinstance(self.key, str) or not self.key:
            raise ConfigurationError(
                f"tenant {self.name!r} needs a non-empty API key string, "
                f"got {self.key!r}"
            )


@dataclasses.dataclass(frozen=True)
class ServingConfig(_SectionMixin):
    """The network serving frontend (:mod:`repro.net`) and its SLOs.

    Governs ``repro serve``: an asyncio HTTP server whose lifespan owns a
    :class:`~repro.api.Session`-backed :class:`~repro.serving.QueryEngine`
    on a dedicated executor thread.

    Parameters
    ----------
    host, port:
        Bind address of the HTTP listener.  ``port=0`` binds an ephemeral
        port (the server reports the one chosen) — what tests and the
        load bench use.
    flush_deadline_ms:
        The flush latency SLO.  It schedules nothing: the server flushes
        as soon as its engine goes idle (group commit), and a flush whose
        oldest query waited this many milliseconds counts as a miss in
        the engine's ``deadline_flushes``.
    max_batch:
        Batch-size watermark — the engine's ``flush_threshold``: this
        many pending queries trigger an immediate flush.
    result_cache_entries:
        Capacity of the keyed result cache (basis name + version +
        payload digest → result); ``0`` disables it.
    tenants:
        Tuple of :class:`TenantSpec` (plain dicts are coerced, so the
        section round-trips through JSON).  Empty (the default) serves
        unauthenticated single-tenant traffic under the ``"public"``
        tenant; non-empty enables per-request API-key auth.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    flush_deadline_ms: float = 25.0
    max_batch: int = 64
    result_cache_entries: int = 256
    tenants: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError(
                f"serving host must be a non-empty string, got {self.host!r}"
            )
        if (
            not isinstance(self.port, int)
            or isinstance(self.port, bool)
            or not (0 <= self.port <= 65535)
        ):
            raise ConfigurationError(
                f"serving port must be an int in [0, 65535], got {self.port!r}"
            )
        if (
            not isinstance(self.flush_deadline_ms, (int, float))
            or isinstance(self.flush_deadline_ms, bool)
            or not self.flush_deadline_ms > 0.0
        ):
            raise ConfigurationError(
                f"serving flush_deadline_ms must be a positive number, got "
                f"{self.flush_deadline_ms!r}"
            )
        if (
            not isinstance(self.max_batch, int)
            or isinstance(self.max_batch, bool)
            or self.max_batch < 1
        ):
            raise ConfigurationError(
                f"serving max_batch must be an int >= 1, got {self.max_batch!r}"
            )
        if (
            not isinstance(self.result_cache_entries, int)
            or isinstance(self.result_cache_entries, bool)
            or self.result_cache_entries < 0
        ):
            raise ConfigurationError(
                f"serving result_cache_entries must be an int >= 0, got "
                f"{self.result_cache_entries!r}"
            )
        if not isinstance(self.tenants, (list, tuple)):
            raise ConfigurationError(
                f"serving tenants must be a sequence of tenant specs, got "
                f"{type(self.tenants).__name__}"
            )
        specs = []
        for index, entry in enumerate(self.tenants):
            if isinstance(entry, TenantSpec):
                specs.append(entry)
            elif isinstance(entry, dict):
                specs.append(
                    _from_section_dict(
                        TenantSpec, f"serving.tenants[{index}]", entry
                    )
                )
            else:
                raise ConfigurationError(
                    f"serving.tenants[{index}] must be a TenantSpec or "
                    f"mapping, got {type(entry).__name__}"
                )
        names = [spec.name for spec in specs]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ConfigurationError(
                f"duplicate serving tenant name(s) {duplicates}"
            )
        keys = [spec.key for spec in specs]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(
                "serving tenant API keys must be unique (a shared key "
                "cannot attribute requests to one tenant)"
            )
        object.__setattr__(self, "tenants", tuple(specs))

    @property
    def auth_enabled(self) -> bool:
        """Whether per-request API-key auth is on (any tenant declared)."""
        return bool(self.tenants)


#: Recovery modes of :class:`RestartPolicy`.
RESTART_MODES = ("restart", "live")


@dataclasses.dataclass(frozen=True)
class RestartPolicy(_SectionMixin):
    """How :meth:`repro.api.Session.run` (and a
    :class:`~repro.health.ElasticSession`) survives a rank failure.

    One :class:`~repro.api.Recovery` applies every field below in both
    modes; ``mode`` only picks what a rebuilt world serves.  Only rank
    failures are retried (the root cause is a
    :class:`~repro.exceptions.CommunicatorError`); any other error
    propagates at once.

    Parameters
    ----------
    max_restarts:
        Recovery budget: the rank failure after ``max_restarts``
        recoveries is re-raised.
    backoff_s:
        Sleep before recovery ``n`` is ``backoff_s * backoff_factor**(n-1)
        + U[0, jitter_s)`` seconds (exponential backoff, seeded jitter).
    backoff_factor:
        Exponential growth factor (``>= 1``).
    jitter_s:
        Uniform random extra sleep bound (decorrelates herds).
    checkpoint_every:
        Snapshot period in ingested batches: the distributed factors are
        gathered into one snapshot (restorable at any rank count) and
        kept in memory.
    checkpoint_path:
        Directory that also persists the latest snapshot as
        ``recovery.npz`` (replaced atomically): ``resume=`` it to continue
        a run that died with its process.  Required on the ``"mpi4py"``
        backend, whose ranks all restore from that file.
    shrink:
        Restart mode: rebuild the world one rank smaller on each restart
        (never below ``min_size``).  Live mode always shrinks.
    min_size:
        Smallest rank count a shrink may fall back to.
    mode:
        ``"restart"`` (default): the job is re-entered on the rebuilt
        world and replays its stream, skipping the batches the snapshot
        already covers (metered as ``repro.recovery.restarts``).
        ``"live"``: the job runs once on a
        :class:`~repro.health.ElasticSession`; its world is rebuilt one
        rank smaller under the running job and only the batches ingested
        since the snapshot are re-fed (metered as
        ``repro.recovery.live_rescales``).
    """

    max_restarts: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_s: float = 0.0
    checkpoint_every: int = 1
    checkpoint_path: Optional[str] = None
    shrink: bool = False
    min_size: int = 1
    mode: str = "restart"

    def __post_init__(self) -> None:
        if self.mode not in RESTART_MODES:
            raise ConfigurationError(
                f"restart mode must be one of {RESTART_MODES}, got {self.mode!r}"
            )
        if (
            not isinstance(self.max_restarts, int)
            or isinstance(self.max_restarts, bool)
            or self.max_restarts < 0
        ):
            raise ConfigurationError(
                f"max_restarts must be an int >= 0, got {self.max_restarts!r}"
            )
        for name in ("backoff_s", "jitter_s"):
            value = getattr(self, name)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value < 0.0
            ):
                raise ConfigurationError(
                    f"{name} must be a number >= 0, got {value!r}"
                )
        if (
            not isinstance(self.backoff_factor, (int, float))
            or isinstance(self.backoff_factor, bool)
            or not self.backoff_factor >= 1.0
        ):
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if (
            not isinstance(self.checkpoint_every, int)
            or isinstance(self.checkpoint_every, bool)
            or self.checkpoint_every < 1
        ):
            raise ConfigurationError(
                f"checkpoint_every must be an int >= 1, got "
                f"{self.checkpoint_every!r}"
            )
        if self.checkpoint_path is not None and not isinstance(
            self.checkpoint_path, str
        ):
            raise ConfigurationError(
                f"checkpoint_path must be a path string or None, got "
                f"{self.checkpoint_path!r}"
            )
        if not isinstance(self.shrink, bool):
            raise ConfigurationError(
                f"shrink must be a bool, got {self.shrink!r}"
            )
        if (
            not isinstance(self.min_size, int)
            or isinstance(self.min_size, bool)
            or self.min_size < 1
        ):
            raise ConfigurationError(
                f"min_size must be an int >= 1, got {self.min_size!r}"
            )

    def backoff_for(self, restart: int, rng=None) -> float:
        """Sleep (seconds) before the ``restart``-th restart (1-based)."""
        base = self.backoff_s * self.backoff_factor ** max(restart - 1, 0)
        if self.jitter_s > 0.0 and rng is not None:
            base += float(rng.uniform(0.0, self.jitter_s))
        return base


@dataclasses.dataclass(frozen=True)
class RunConfig(_SectionMixin):
    """The complete, typed description of one SVD run.

    Composes the orthogonal sections — *what* to solve
    (:class:`SolverConfig`), *where* to run it (:class:`BackendConfig`),
    *how* batches arrive (:class:`StreamConfig`) and *what the run
    measures about itself* (:class:`ObservabilityConfig`) — into the
    single value every driver entry point (:class:`~repro.api.Session`, the CLI,
    examples, benchmarks) programs against.  Round-trips losslessly
    through :meth:`to_dict`/:meth:`from_dict` and JSON
    (:meth:`to_json`/:meth:`from_json`/:meth:`save`/:meth:`load`), and is
    embedded into checkpoints so :meth:`repro.api.Session.resume` can
    restore solver *and* backend settings.

    Examples
    --------
    >>> cfg = RunConfig(solver=SolverConfig(K=10, ff=1.0))
    >>> RunConfig.from_json(cfg.to_json()) == cfg
    True
    """

    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    backend: BackendConfig = dataclasses.field(default_factory=BackendConfig)
    stream: StreamConfig = dataclasses.field(default_factory=StreamConfig)
    obs: ObservabilityConfig = dataclasses.field(
        default_factory=ObservabilityConfig
    )
    faults: FaultConfig = dataclasses.field(default_factory=FaultConfig)
    health: HealthConfig = dataclasses.field(default_factory=HealthConfig)
    serving: ServingConfig = dataclasses.field(default_factory=ServingConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.solver, SolverConfig):
            raise ConfigurationError(
                f"solver must be a SolverConfig, got {type(self.solver).__name__}"
            )
        if not isinstance(self.backend, BackendConfig):
            raise ConfigurationError(
                f"backend must be a BackendConfig, got {type(self.backend).__name__}"
            )
        if not isinstance(self.stream, StreamConfig):
            raise ConfigurationError(
                f"stream must be a StreamConfig, got {type(self.stream).__name__}"
            )
        if not isinstance(self.obs, ObservabilityConfig):
            raise ConfigurationError(
                f"obs must be an ObservabilityConfig, got {type(self.obs).__name__}"
            )
        if not isinstance(self.faults, FaultConfig):
            raise ConfigurationError(
                f"faults must be a FaultConfig, got {type(self.faults).__name__}"
            )
        if not isinstance(self.health, HealthConfig):
            raise ConfigurationError(
                f"health must be a HealthConfig, got {type(self.health).__name__}"
            )
        if not isinstance(self.serving, ServingConfig):
            raise ConfigurationError(
                f"serving must be a ServingConfig, got "
                f"{type(self.serving).__name__}"
            )

    # -- dict / JSON round-trip -------------------------------------------
    def to_dict(self) -> dict:
        """Nested plain-dict form (JSON-serialisable)."""
        payload = {
            "solver": dataclasses.asdict(self.solver),
            "backend": dataclasses.asdict(self.backend),
            "stream": dataclasses.asdict(self.stream),
            "obs": dataclasses.asdict(self.obs),
            "faults": dataclasses.asdict(self.faults),
            "health": dataclasses.asdict(self.health),
            "serving": dataclasses.asdict(self.serving),
        }
        # JSON round-trip: the spec tuples (of dicts, after asdict)
        # serialise as lists; from_dict coerces them back.
        payload["faults"]["schedule"] = list(payload["faults"]["schedule"])
        payload["serving"]["tenants"] = list(payload["serving"]["tenants"])
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        """Inverse of :meth:`to_dict`; missing sections/keys take their
        defaults, unknown ones raise :class:`~repro.exceptions.
        ConfigurationError`."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"run config must be a mapping, got {type(payload).__name__}"
            )
        unknown = sorted(
            set(payload)
            - {
                "solver",
                "backend",
                "stream",
                "obs",
                "faults",
                "health",
                "serving",
            }
        )
        if unknown:
            raise ConfigurationError(
                f"unknown section(s) {unknown} in run config; valid "
                f"sections: ['backend', 'faults', 'health', 'obs', "
                f"'serving', 'solver', 'stream']"
            )
        return cls(
            solver=_from_section_dict(
                SolverConfig, "solver", payload.get("solver", {})
            ),
            backend=_from_section_dict(
                BackendConfig, "backend", payload.get("backend", {})
            ),
            stream=_from_section_dict(
                StreamConfig, "stream", payload.get("stream", {})
            ),
            obs=_from_section_dict(
                ObservabilityConfig, "obs", payload.get("obs", {})
            ),
            faults=_from_section_dict(
                FaultConfig, "faults", payload.get("faults", {})
            ),
            health=_from_section_dict(
                HealthConfig, "health", payload.get("health", {})
            ),
            serving=_from_section_dict(
                ServingConfig, "serving", payload.get("serving", {})
            ),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"run config is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the JSON form to ``path``; returns the path written."""
        path = pathlib.Path(path)
        path.write_text(self.to_json(indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "RunConfig":
        """Read a JSON run config from disk (see :meth:`save`)."""
        path = pathlib.Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read run config {path}: {exc}") from exc
        return cls.from_json(text)
