"""Every streaming lane against its frozen reference output.

These tests pin each lane (world, TSQR variant, dtype) to the outputs
of the kernel that formed the local ``Q`` explicitly (see
``step_references.py``), at 1e-12 in float64 and 1e-4 relative in
float32.
"""

import numpy as np
import pytest

from step_references import CONFIGS, PATH, reference_key, run

#: (modes: max absolute error, values: max relative error) per dtype.
TOLERANCE = {"float64": 1e-12, "float32": 1e-4}


@pytest.fixture(scope="module")
def references():
    with np.load(PATH) as frozen:
        return dict(frozen)


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[reference_key(*c) for c in CONFIGS]
)
def test_lane_matches_frozen_reference(references, config):
    modes, values = run(*config)
    key = reference_key(*config)
    ref_modes = references[f"{key}/modes"]
    ref_values = references[f"{key}/values"]
    tol = TOLERANCE[config[-1]]
    assert modes.dtype == ref_modes.dtype
    assert modes.shape == ref_modes.shape
    assert np.max(np.abs(modes - ref_modes)) <= tol
    assert np.max(np.abs(values - ref_values) / ref_values) <= tol
