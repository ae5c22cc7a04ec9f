"""Shared numerical and infrastructure utilities."""

from .linalg import (
    economy_qr,
    economy_svd,
    qr_positive,
    align_signs,
    orthogonality_defect,
    subspace_angles_deg,
    truncate_svd,
)
from .partition import BlockPartition, block_partition
from .rng import resolve_rng, spawn_rank_rngs

__all__ = [
    "economy_qr",
    "economy_svd",
    "qr_positive",
    "align_signs",
    "orthogonality_defect",
    "subspace_angles_deg",
    "truncate_svd",
    "BlockPartition",
    "block_partition",
    "resolve_rng",
    "spawn_rank_rngs",
]
