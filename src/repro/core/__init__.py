"""Core algorithms: streaming, distributed and randomized SVD."""

from .apmos import apmos_svd, generate_right_vectors, stack_gathered
from .base import ParSVDBase
from .metrics import (
    ModeComparison,
    compare_modes,
    mode_error_curve,
    mode_errors,
    spectrum_relative_error,
)
from .parallel import ParSVDParallel
from .randomized import (
    gaussian_sketch,
    low_rank_svd,
    randomized_range_finder,
    randomized_svd,
    relative_spectral_error,
)
from .serial import ParSVDSerial
from .streaming import StreamingState, incorporate_batch, initialize_streaming
from .tsqr import tsqr_gather, tsqr_tree

__all__ = [
    "ParSVDBase",
    "ParSVDSerial",
    "ParSVDParallel",
    "apmos_svd",
    "generate_right_vectors",
    "stack_gathered",
    "tsqr_gather",
    "tsqr_tree",
    "gaussian_sketch",
    "randomized_range_finder",
    "randomized_svd",
    "low_rank_svd",
    "relative_spectral_error",
    "StreamingState",
    "initialize_streaming",
    "incorporate_batch",
    "ModeComparison",
    "compare_modes",
    "mode_errors",
    "mode_error_curve",
    "spectrum_relative_error",
]
