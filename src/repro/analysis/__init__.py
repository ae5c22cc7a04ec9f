"""Application-layer analyses built on the SVD core (paper section 2)."""

from .coherent import CoherentStructureReport, extract_coherent_structures
from .dmd import DMDResult, dmd
from .distributed import (
    distributed_inner_products,
    distributed_norm,
    distributed_pod,
    distributed_project,
    distributed_reconstruction_error,
)
from .pod import PODResult, pod, pod_method_of_snapshots
from .spod import SPODResult, spod
from .reconstruction import (
    cumulative_energy,
    project_coefficients,
    rank_for_energy,
    reconstruct,
    reconstruction_error_curve,
)

__all__ = [
    "SPODResult",
    "spod",
    "distributed_inner_products",
    "distributed_norm",
    "distributed_pod",
    "distributed_project",
    "distributed_reconstruction_error",
    "DMDResult",
    "dmd",
    "PODResult",
    "pod",
    "pod_method_of_snapshots",
    "reconstruct",
    "project_coefficients",
    "reconstruction_error_curve",
    "cumulative_energy",
    "rank_for_energy",
    "CoherentStructureReport",
    "extract_coherent_structures",
]
