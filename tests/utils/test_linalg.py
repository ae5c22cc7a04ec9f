"""Unit tests for repro.utils.linalg."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.utils.linalg import (
    align_signs,
    economy_qr,
    economy_svd,
    orthogonality_defect,
    qr_positive,
    subspace_angles_deg,
    truncate_svd,
)


class TestEconomyFactorizations:
    def test_svd_reconstructs(self, tall_matrix):
        u, s, vt = economy_svd(tall_matrix)
        assert u.shape == (120, 30)
        assert np.allclose((u * s) @ vt, tall_matrix)

    def test_svd_descending(self, tall_matrix):
        _, s, _ = economy_svd(tall_matrix)
        assert np.all(np.diff(s) <= 0)

    def test_qr_reconstructs(self, tall_matrix):
        q, r = economy_qr(tall_matrix)
        assert q.shape == (120, 30)
        assert np.allclose(q @ r, tall_matrix)

    def test_svd_rejects_1d(self):
        with pytest.raises(ShapeError):
            economy_svd(np.ones(5))

    def test_qr_rejects_3d(self):
        with pytest.raises(ShapeError):
            economy_qr(np.ones((2, 2, 2)))


class TestQrPositive:
    def test_diag_nonnegative(self, rng):
        for _ in range(5):
            a = rng.standard_normal((40, 10))
            _, r = qr_positive(a)
            assert np.all(np.diagonal(r) >= 0)

    def test_reconstruction(self, tall_matrix):
        q, r = qr_positive(tall_matrix)
        assert np.allclose(q @ r, tall_matrix)

    def test_orthonormal(self, tall_matrix):
        q, _ = qr_positive(tall_matrix)
        assert orthogonality_defect(q) < 1e-12

    def test_uniqueness_under_row_permutation_of_factors(self, rng):
        # Same matrix, two code paths that might pick different signs:
        # qr_positive must be deterministic.
        a = rng.standard_normal((30, 8))
        q1, r1 = qr_positive(a)
        q2, r2 = qr_positive(a.copy(order="F"))
        assert np.allclose(q1, q2)
        assert np.allclose(r1, r2)

    def test_upper_triangular(self, tall_matrix):
        _, r = qr_positive(tall_matrix)
        assert np.allclose(r, np.triu(r))

    def test_wide_matrix(self, rng):
        a = rng.standard_normal((5, 12))
        q, r = qr_positive(a)
        assert q.shape == (5, 5)
        assert r.shape == (5, 12)
        assert np.allclose(q @ r, a)
        assert np.all(np.diagonal(r) >= 0)


class TestQrReflectors:
    """``qr_positive(a, form_q=False)``: the same factorization with ``Q``
    kept as reflectors and applied without forming it."""

    @staticmethod
    def check(a, atol):
        q, r = qr_positive(a)
        reflectors, r_reflectors = qr_positive(a, form_q=False)
        assert reflectors.shape == q.shape
        assert np.allclose(r_reflectors, r, atol=atol)
        c = np.random.default_rng(1).standard_normal((q.shape[1], 3))
        applied = reflectors.apply(c)
        assert applied.shape == (a.shape[0], 3)
        assert applied.flags.f_contiguous
        assert np.allclose(applied, q @ c, atol=atol)
        return applied

    def test_tall_matrix(self, tall_matrix):
        self.check(tall_matrix, 1e-12)

    def test_wide_matrix(self, rng):
        self.check(rng.standard_normal((5, 12)), 1e-12)

    def test_zero_rows(self):
        applied = self.check(np.empty((0, 6)), 0.0)
        assert applied.shape == (0, 3)

    def test_float32(self, rng):
        a = rng.standard_normal((60, 9)).astype(np.float32)
        _, r = qr_positive(a, form_q=False)
        assert r.dtype == np.float32
        applied = self.check(a, 1e-5)
        assert applied.dtype == np.float32

    def test_c_ordered_input(self, rng):
        a = np.ascontiguousarray(rng.standard_normal((40, 7)))
        assert not a.flags.f_contiguous
        self.check(a, 1e-12)

    def test_apply_lands_in_supplied_out(self, rng):
        a = rng.standard_normal((40, 7))
        reflectors, _ = qr_positive(a, form_q=False)
        out = np.empty((40, 4), order="F")
        c = rng.standard_normal((7, 4))
        result = reflectors.apply(c, out=out)
        assert np.shares_memory(result, out)
        assert np.allclose(out, qr_positive(a)[0] @ c, atol=1e-12)
        with pytest.raises(ShapeError):
            reflectors.apply(c, out=np.empty((40, 4), order="C"))

    def test_apply_refuses_a_malformed_factor(self, rng):
        reflectors, _ = qr_positive(rng.standard_normal((40, 7)), form_q=False)
        c = rng.standard_normal((7, 2))
        malformed = (
            reflectors._replace(v=reflectors.v.astype(np.float32)),
            reflectors._replace(t=reflectors.t[:, :3]),
        )
        for factor in malformed:
            with pytest.raises(ShapeError):
                factor.apply(c)
        with pytest.raises(ShapeError):
            reflectors.apply(c[:5])
        with pytest.raises(ShapeError):
            reflectors.apply(c, out=np.empty((40, 2), dtype=np.float32, order="F"))

    def test_input_destroyed_only_with_overwrite(self, rng):
        a = np.asfortranarray(rng.standard_normal((40, 7)))
        original = a.copy()
        qr_positive(a, form_q=False)
        assert np.array_equal(a, original)
        reflectors, _ = qr_positive(a, overwrite_a=True, form_q=False)
        assert not np.array_equal(a, original)
        assert np.shares_memory(reflectors.v, a)


class TestTruncateSvd:
    def test_truncates(self, tall_matrix):
        u, s, vt = economy_svd(tall_matrix)
        ut, st, vtt = truncate_svd(u, s, vt, 7)
        assert ut.shape == (120, 7)
        assert st.shape == (7,)
        assert vtt.shape == (7, 30)

    def test_clips_when_rank_exceeds(self, tall_matrix):
        u, s, vt = economy_svd(tall_matrix)
        ut, st, _ = truncate_svd(u, s, vt, 999)
        assert st.shape == (30,)
        assert ut.shape == (120, 30)

    def test_keeps_leading(self, tall_matrix):
        u, s, vt = economy_svd(tall_matrix)
        _, st, _ = truncate_svd(u, s, vt, 5)
        assert np.array_equal(st, s[:5])

    def test_rejects_nonpositive_rank(self, tall_matrix):
        u, s, vt = economy_svd(tall_matrix)
        with pytest.raises(ShapeError):
            truncate_svd(u, s, vt, 0)


class TestAlignSigns:
    def test_flips_negated_columns(self, rng):
        ref = rng.standard_normal((50, 4))
        cand = ref.copy()
        cand[:, 1] *= -1
        cand[:, 3] *= -1
        assert np.allclose(align_signs(ref, cand), ref)

    def test_identity_when_aligned(self, rng):
        ref = rng.standard_normal((50, 4))
        assert np.allclose(align_signs(ref, ref), ref)

    def test_does_not_mutate_input(self, rng):
        ref = rng.standard_normal((10, 2))
        cand = -ref
        cand_copy = cand.copy()
        align_signs(ref, cand)
        assert np.array_equal(cand, cand_copy)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            align_signs(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))


class TestSubspaceAngles:
    def test_identical_subspaces_zero(self, rng):
        a = rng.standard_normal((60, 5))
        angles = subspace_angles_deg(a, a @ rng.standard_normal((5, 5)))
        assert np.all(angles < 1e-4)

    def test_orthogonal_subspaces_ninety(self):
        a = np.eye(10)[:, :3]
        b = np.eye(10)[:, 5:8]
        angles = subspace_angles_deg(a, b)
        assert np.allclose(angles, 90.0)

    def test_accepts_non_orthonormal_bases(self, rng):
        a = rng.standard_normal((40, 3))
        angles = subspace_angles_deg(a, 3.7 * a)
        assert np.all(angles < 1e-4)

    def test_dim_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            subspace_angles_deg(
                rng.standard_normal((10, 2)), rng.standard_normal((11, 2))
            )


class TestOrthogonalityDefect:
    def test_zero_for_identity(self):
        assert orthogonality_defect(np.eye(6)) == 0.0

    def test_positive_for_skewed(self, rng):
        a = rng.standard_normal((20, 4))
        assert orthogonality_defect(a) > 0.1
