"""Property-based tests for the dense linear-algebra helpers."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.linalg import (
    align_signs,
    orthogonality_defect,
    qr_positive,
    subspace_angles_deg,
    truncate_svd,
)

# Well-scaled float matrices: magnitudes that keep QR/SVD far from under/
# overflow so properties hold to round-off.
_elements = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def _matrix(min_rows=2, max_rows=20, min_cols=1, max_cols=8):
    return st.integers(min_rows, max_rows).flatmap(
        lambda m: st.integers(min_cols, min(max_cols, m)).flatmap(
            lambda n: arrays(np.float64, (m, n), elements=_elements)
        )
    )


@settings(max_examples=60, deadline=None)
@given(_matrix())
def test_qr_positive_reconstructs(a):
    q, r = qr_positive(a)
    assert np.allclose(q @ r, a, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(_matrix(), st.integers(1, 4))
def test_reflector_apply_matches_formed_q(a, p):
    # Q is unique (diag(R) > 0) only for full column rank; the two LAPACK
    # paths agree to round-off times cond(a), so keep cond(a) modest.
    assume(np.linalg.cond(a) < 1e3)
    q, _ = qr_positive(a)
    reflectors, _ = qr_positive(a, form_q=False)
    c = np.random.default_rng(0).standard_normal((q.shape[1], p))
    assert np.max(np.abs(reflectors.apply(c) - q @ c)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(_matrix())
def test_qr_positive_diag_nonnegative(a):
    _, r = qr_positive(a)
    assert np.all(np.diagonal(r) >= 0)


@settings(max_examples=60, deadline=None)
@given(_matrix())
def test_qr_positive_orthonormal_within_tolerance(a):
    q, _ = qr_positive(a)
    assert orthogonality_defect(q) < 1e-10


@settings(max_examples=60, deadline=None)
@given(_matrix(), st.integers(1, 8))
def test_truncate_never_exceeds(a, k):
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    ut, st_, vtt = truncate_svd(u, s, vt, k)
    assert ut.shape[1] == st_.shape[0] == vtt.shape[0] == min(k, s.shape[0])
    assert np.array_equal(st_, s[: st_.shape[0]])


@settings(max_examples=60, deadline=None)
@given(_matrix(min_rows=3))
def test_align_signs_idempotent_and_colwise(a):
    signs = np.where(np.arange(a.shape[1]) % 2 == 0, 1.0, -1.0)
    flipped = a * signs
    aligned = align_signs(a, flipped)
    # aligning a sign-flipped copy recovers the original where columns are
    # nonzero
    nonzero = np.linalg.norm(a, axis=0) > 0
    assert np.allclose(aligned[:, nonzero], a[:, nonzero])
    # idempotent
    assert np.allclose(align_signs(a, aligned), aligned)


@settings(max_examples=40, deadline=None)
@given(_matrix(min_rows=6, max_rows=20, min_cols=2, max_cols=4))
def test_subspace_angles_bounded(a):
    rng = np.random.default_rng(0)
    b = rng.standard_normal(a.shape)
    angles = subspace_angles_deg(a, b)
    assert np.all(angles >= -1e-9)
    assert np.all(angles <= 90.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(_matrix(min_rows=6, max_rows=20, min_cols=2, max_cols=4))
def test_subspace_angles_symmetric(a):
    rng = np.random.default_rng(1)
    b = rng.standard_normal(a.shape)
    ab = subspace_angles_deg(a, b)
    ba = subspace_angles_deg(b, a)
    # arccos near +/-1 has sqrt(eps) sensitivity -> ~1e-6 deg noise
    assert np.allclose(np.sort(ab), np.sort(ba), atol=1e-4)
