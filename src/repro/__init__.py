"""repro — reproduction of *PyParSVD: a streaming, distributed and
randomized singular-value-decomposition library* (Maulik & Mengaldo,
SC 2021, arXiv:2108.08845).

Public API
----------
The typed facade (start here):

* :class:`repro.api.Session` — one entry point for every driver: owns
  the communicator lifecycle, builds the solver, wires streams, and
  exposes ``fit_stream`` / ``result`` / ``save_checkpoint`` /
  ``export_to_store`` / ``query_engine`` / ``resume``.
* :class:`RunConfig` = :class:`SolverConfig` + :class:`BackendConfig` +
  :class:`StreamConfig` — the frozen, validated, JSON-round-trippable
  description of a run (also embedded into checkpoints).

Streaming SVD classes (the paper's contribution):

* :class:`ParSVDSerial` — single-process streaming SVD (Listing 1).
* :class:`ParSVDParallel` — distributed streaming randomized SVD
  (Listings 2-4); pair it with :func:`repro.smpi.run_spmd`.

Building blocks:

* :func:`repro.core.apmos_svd` — one-shot distributed SVD (Algorithm 2).
* :func:`repro.core.randomized_svd` / :func:`repro.core.low_rank_svd` —
  randomized linear algebra (section 3.3).
* :func:`repro.core.tsqr_gather` / :func:`repro.core.tsqr_tree` —
  distributed tall-skinny QR (blocking: one pipelined step, posted and
  finished at once).

Substrates built for this reproduction:

* :mod:`repro.smpi` — pluggable communicator backends behind one factory
  (:func:`create_communicator` / :func:`run_backend`): the in-process
  threaded MPI stand-in, a zero-overhead single-rank communicator, and an
  optional adapter over real ``mpi4py``.
* :mod:`repro.data` — workload generators (Burgers, ERA5-like) and
  snapshot IO.
* :mod:`repro.serving` — sharded mode-base serving: a versioned
  :class:`ModeBaseStore` of gathered checkpoints, row-sharded bases, and a
  micro-batching :class:`QueryEngine` (project / reconstruct /
  reconstruction-error).
* :mod:`repro.perf` — calibrated machine model + scaling studies
  (stand-in for the Theta weak-scaling runs).
* :mod:`repro.obs` — opt-in metrics registry and span tracer wired
  through the whole stack (``repro profile``, Chrome-trace export),
  costing ~nothing while disabled.

Quickstart
----------
>>> import numpy as np
>>> from repro import ParSVDSerial
>>> data = np.random.default_rng(0).standard_normal((500, 60))
>>> svd = ParSVDSerial(K=5, ff=1.0).initialize(data[:, :20])
>>> svd = svd.incorporate_data(data[:, 20:40]).incorporate_data(data[:, 40:])
>>> svd.modes.shape, svd.singular_values.shape
((500, 5), (5,))
"""

from .api import Session, SessionResult
from .config import (
    BackendConfig,
    FaultConfig,
    FaultSpec,
    HealthConfig,
    ObservabilityConfig,
    RestartPolicy,
    RunConfig,
    ServingConfig,
    SolverConfig,
    StreamConfig,
    SVDConfig,
    TenantSpec,
)
from .core import (
    ParSVDBase,
    ParSVDParallel,
    ParSVDSerial,
    apmos_svd,
    compare_modes,
    low_rank_svd,
    randomized_svd,
    tsqr_gather,
    tsqr_tree,
)
from .exceptions import (
    BasisNotFoundError,
    ConfigurationError,
    DataFormatError,
    HealthError,
    NotInitializedError,
    ReproError,
    RescaleError,
    ServingError,
    ShapeError,
)
from .health import ElasticSession, HealthMonitor, ProgressDaemon
from .serving import ModeBase, ModeBaseStore, QueryEngine, ShardedBasis
from .smpi import (
    DeadlockError,
    FailedRankError,
    SelfCommunicator,
    create_communicator,
    run_backend,
    run_spmd,
)

__version__ = "1.4.0"

__all__ = [
    "Session",
    "SessionResult",
    "RunConfig",
    "SolverConfig",
    "BackendConfig",
    "StreamConfig",
    "ObservabilityConfig",
    "FaultConfig",
    "FaultSpec",
    "HealthConfig",
    "RestartPolicy",
    "ServingConfig",
    "TenantSpec",
    "SVDConfig",
    "ParSVDBase",
    "ParSVDSerial",
    "ParSVDParallel",
    "apmos_svd",
    "randomized_svd",
    "low_rank_svd",
    "tsqr_gather",
    "tsqr_tree",
    "compare_modes",
    "run_spmd",
    "run_backend",
    "create_communicator",
    "SelfCommunicator",
    "ModeBase",
    "ModeBaseStore",
    "ShardedBasis",
    "QueryEngine",
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "NotInitializedError",
    "DataFormatError",
    "ServingError",
    "BasisNotFoundError",
    "HealthError",
    "RescaleError",
    "DeadlockError",
    "FailedRankError",
    "HealthMonitor",
    "ProgressDaemon",
    "ElasticSession",
    "__version__",
]
