"""Dense linear-algebra helpers used throughout the library.

Conventions
-----------
* Economy-size factorizations everywhere (``full_matrices=False`` /
  ``mode="reduced"``) — the snapshot matrices of the paper are tall-skinny
  (``M >> N``) and the full factors would be catastrophically large.
* QR sign canonicalisation: ``numpy.linalg.qr`` returns a factorization that
  is unique only up to the signs of the columns of ``Q`` (and the rows of
  ``R``).  The paper works around the resulting serial/parallel mismatch with
  an ad-hoc global sign flip (``qglobal = -qglobal  # Trick for consistency``
  in Listing 4).  We instead canonicalise every QR so that ``diag(R) >= 0``
  (:func:`qr_positive`), which makes local and global factors deterministic
  and removes the need for hand-placed flips.
* Singular vectors are defined up to a global sign per mode; comparisons use
  :func:`align_signs` first.
* A QR whose ``Q`` is only ever multiplied into a small matrix need not form
  it: ``qr_positive(a, form_q=False)`` keeps ``Q`` as compact-WY Householder
  reflectors (:class:`HouseholderQ`), applied with one tall GEMM.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Any, NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg import cython_lapack, get_blas_funcs, get_lapack_funcs
from scipy.linalg import qr as _scipy_qr
from scipy.linalg import svd as _scipy_svd

from ..exceptions import ShapeError

__all__ = [
    "as_floating",
    "economy_qr",
    "economy_svd",
    "HouseholderQ",
    "qr_positive",
    "align_signs",
    "orthogonality_defect",
    "subspace_angles_deg",
    "truncate_svd",
]


def as_floating(a, name: str = "array") -> np.ndarray:
    """Coerce ``a`` to a floating NumPy array, *preserving* float32/float64.

    Integer and bool inputs promote to float64; float32 stays float32 so
    memory-constrained pipelines keep their precision choice end to end.
    Complex input is rejected — the library implements the real-matrix
    algorithms of the paper.
    """
    arr = np.asarray(a)
    if np.issubdtype(arr.dtype, np.complexfloating):
        raise ShapeError(f"{name} must be real, got dtype {arr.dtype}")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


def _require_2d(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    return arr


def economy_svd(
    a: np.ndarray, overwrite_a: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy-size SVD ``a = U @ diag(s) @ Vt``.

    Backed by ``scipy.linalg.svd`` with ``check_finite=False`` (LAPACK
    ``gesdd``, as :func:`numpy.linalg.svd`, without the finite-ness
    pre-scan of the whole matrix).  Kept as a function so callers never
    accidentally request full factors of a tall-skinny matrix (guide: "ask
    for an incomplete version of the SVD").

    Parameters
    ----------
    overwrite_a:
        Allow LAPACK to destroy ``a``'s contents.  Pass ``True`` only for
        scratch buffers the caller owns and no longer needs — e.g. the
        streaming workspace after its factors are taken.
    """
    a = _require_2d(a, "a")
    return _scipy_svd(
        a, full_matrices=False, check_finite=False, overwrite_a=overwrite_a
    )


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


@functools.lru_cache(maxsize=None)
def _geqrt_nogil(prefix: str) -> Any:
    """LAPACK ``?geqrt`` of type ``prefix`` from ``scipy.linalg.cython_lapack``
    as a ctypes function.  SciPy's f2py wrapper of ``?geqrt`` holds the GIL
    for the whole call, which serialises the factorizations of ranks that
    are threads; a ctypes call releases it."""
    capsule = cython_lapack.__pyx_capi__[prefix + "geqrt"]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 9)(address)


def _int_ref(value: int) -> Any:
    return ctypes.byref(ctypes.c_int(value))


def economy_qr(
    a: np.ndarray, overwrite_a: bool = False, *, form_q: bool = True
) -> Tuple[Any, np.ndarray]:
    """Economy-size (reduced) QR factorization ``a = Q @ R``.

    SciPy-backed (``mode="economic"``, ``check_finite=False``).
    ``overwrite_a`` as in :func:`economy_svd`.

    With ``form_q=False`` ``Q`` is not formed.  The factorization is then
    LAPACK's ``?geqrt`` with one block of all ``k = min(m, n)`` columns —
    the recursive compact-WY QR of Elmroth & Gustavson (IBM J. Res. Dev.
    44(4), 2000) — run with the GIL released, and the first result is its
    ``(v, t)`` pair, which :class:`HouseholderQ` applies: ``v`` holds the
    ``k`` reflectors below its diagonal (the ``R`` above it is never read),
    ``t`` the ``(k, k)`` upper-triangular factor of ``I - v t v^T``.  ``v``
    is ``a`` itself when ``overwrite_a`` is set and ``a`` is
    Fortran-ordered with a LAPACK dtype, so the factor is valid only while
    the caller leaves ``a`` alone.
    """
    a = _require_2d(a, "a")
    if form_q:
        return _scipy_qr(
            a, mode="economic", check_finite=False, overwrite_a=overwrite_a
        )
    (geqrt,) = get_lapack_funcs(("geqrt",), (a,))
    dtype = geqrt.dtype
    m, n = a.shape
    k = min(m, n)
    in_place = (
        overwrite_a
        and a.dtype == dtype
        and a.flags.f_contiguous
        and a.flags.writeable
        and a.flags.aligned
    )
    v = a if in_place else np.array(a, dtype=dtype, order="F")
    t = np.empty((k, k), dtype=dtype, order="F")
    if k:  # ?geqrt needs 1 <= nb <= min(m, n)
        work = np.empty(k * n, dtype=dtype)
        info = ctypes.c_int()
        # (m, n, nb, a, lda, t, ldt, work, info); v and t are Fortran-
        # ordered with leading dimensions m and k, referenced for the call.
        _geqrt_nogil(geqrt.typecode)(
            _int_ref(m), _int_ref(n), _int_ref(k), v.ctypes.data, _int_ref(m),
            t.ctypes.data, _int_ref(k), work.ctypes.data, ctypes.byref(info),
        )
        if info.value != 0:
            name = geqrt.typecode + "geqrt"
            raise RuntimeError(f"LAPACK {name} failed: info={info.value}")
    return (v[:, :k], t), np.triu(v[:k])


class HouseholderQ(NamedTuple):
    """The ``(m, k)`` orthonormal factor of ``qr_positive(a, form_q=False)``,
    kept as the compact-WY reflectors ``(v, t)`` of :func:`economy_qr` and
    the column ``signs`` that make ``diag(R) >= 0``: ``Q = H[:, :k] *
    signs`` with ``H = I - V T V^T`` the ``m x m`` product of the
    reflectors."""

    v: np.ndarray
    t: np.ndarray
    signs: np.ndarray

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.v.shape

    def apply(self, c: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``Q @ c`` without forming ``Q``.

        ``Q @ c`` is ``H`` applied to ``c`` times the signs, zero-padded to
        ``m`` rows.  With ``H = I - V T V^T``, ``V1`` the unit lower
        triangle of ``v``'s top ``k`` rows and ``V2`` its other rows, that
        is ``[c + V1 w; V2 w]`` with ``w = -T V1^T c``: three small
        triangular products and one tall GEMM straight into ``out``, so
        the zero rows are never read (``?gemqrt`` would spend a second
        tall pass on them).

        ``out`` is the ``(m, p)`` Fortran-ordered destination, of the
        reflectors' dtype; it is allocated when ``None``.
        """
        m, k = self.v.shape
        dtype = self.v.dtype
        c = np.asarray(c)
        if self.t.shape != (k, k) or self.t.dtype != dtype:
            raise ShapeError("v and t must be a ?geqrt factor (economy_qr)")
        if c.ndim != 2 or c.shape[0] != k:
            raise ShapeError(f"cannot apply a ({m}, {k}) Q to shape {c.shape}")
        if out is None:
            out = np.empty((m, c.shape[1]), dtype=dtype, order="F")
        elif not (
            out.shape == (m, c.shape[1])
            and out.dtype == dtype
            and out.flags.f_contiguous
        ):
            raise ShapeError(
                f"out must be a Fortran-ordered {(m, c.shape[1])} "
                f"{dtype} array, got {out.shape} {out.dtype}"
            )
        if k == 0:
            out[...] = 0.0
            return out
        (trmm,) = get_blas_funcs(("trmm",), (self.v,))
        v1 = self.v[:k]
        signed = (c * self.signs[:, np.newaxis]).astype(dtype, copy=False)
        w = trmm(-1.0, self.t, trmm(1.0, v1, signed, lower=1, trans_a=1, diag=1))
        np.add(signed, trmm(1.0, v1, w, lower=1, diag=1), out=out[:k])
        np.matmul(self.v[k:], w, out=out[k:])
        return out


def qr_positive(
    a: np.ndarray, overwrite_a: bool = False, *, form_q: bool = True
) -> Tuple[Any, np.ndarray]:
    """Reduced QR with the sign convention ``diag(R) >= 0``.

    Flips the sign of each column ``j`` of ``Q`` (and row ``j`` of ``R``)
    whose diagonal entry ``R[j, j]`` is negative.  With this convention the
    factorization of a full-column-rank matrix is unique, which is what makes
    the distributed TSQR reduction deterministic across rank counts.  The
    sign flips are applied *in place* on the freshly factored ``Q``/``R``
    (no extra full-size temporaries on the streaming hot path).

    With ``form_q=False`` the first result is a :class:`HouseholderQ`: the
    same ``Q``, never formed, its signs kept for :meth:`HouseholderQ.apply`
    to fold into the small matrix it multiplies.

    Returns
    -------
    (Q, R):
        ``Q`` has orthonormal columns, ``R`` is upper triangular with a
        nonnegative diagonal and ``a == Q @ R`` to round-off.
    """
    q, r = economy_qr(a, overwrite_a=overwrite_a, form_q=form_q)
    signs = np.sign(np.diagonal(r))
    # sign(0) == 0 would zero out columns of a rank-deficient factor; keep
    # those columns untouched instead.
    signs = np.where(signs == 0.0, 1.0, signs)
    # r (and q) are freshly allocated by the factorization, so
    # canonicalising in place is safe and saves full-size copies per QR.
    r *= signs[:, np.newaxis]
    if not form_q:
        return HouseholderQ(*q, signs), r
    q *= signs[np.newaxis, :]
    return q, r


def truncate_svd(
    u: np.ndarray, s: np.ndarray, vt: Optional[np.ndarray], rank: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Retain the leading ``rank`` triplets of an SVD, preserving order.

    ``rank`` larger than the available number of triplets is clipped rather
    than raised: streaming callers routinely ask for ``K`` modes before ``K``
    snapshots have been seen.  ``vt`` may be ``None`` (callers that only
    track the left factors — the streaming classes — need no throwaway
    right-vector dummy); it is then returned as ``None``.
    """
    if rank <= 0:
        raise ShapeError(f"rank must be positive, got {rank}")
    k = min(rank, s.shape[0])
    return u[:, :k], s[:k], None if vt is None else vt[:k, :]


def align_signs(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Flip columns of ``candidate`` to best match the signs of ``reference``.

    Singular vectors are defined up to a per-mode factor of ``-1``; any
    serial-vs-parallel comparison must be performed modulo that ambiguity.
    The returned array is a sign-flipped *copy* of ``candidate``.
    """
    reference = _require_2d(reference, "reference")
    candidate = _require_2d(candidate, "candidate")
    if reference.shape != candidate.shape:
        raise ShapeError(
            "align_signs requires equal shapes, got "
            f"{reference.shape} vs {candidate.shape}"
        )
    dots = np.einsum("ij,ij->j", reference, candidate)
    signs = np.where(dots < 0.0, -1.0, 1.0)
    return candidate * signs[np.newaxis, :]


def orthogonality_defect(q: np.ndarray) -> float:
    """``max |Q^T Q - I|`` — how far the columns of ``Q`` are from orthonormal."""
    q = _require_2d(q, "q")
    gram = q.T @ q
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def subspace_angles_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (degrees) between the column spaces of ``a`` and ``b``.

    Both inputs are orthonormalised internally, so raw (non-orthonormal)
    bases are accepted.  The result is sorted ascending; a perfect subspace
    match yields all-zero angles.
    """
    a = _require_2d(a, "a")
    b = _require_2d(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(
            f"subspace bases must share the ambient dimension, got "
            f"{a.shape[0]} vs {b.shape[0]}"
        )
    qa, _ = economy_qr(a)
    qb, _ = economy_qr(b)
    sigma = np.linalg.svd(qa.T @ qb, compute_uv=False)
    sigma = np.clip(sigma, -1.0, 1.0)
    return np.degrees(np.arccos(sigma))[::-1]
