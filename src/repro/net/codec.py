"""The ``npy`` wire form of a query array: ``{"npy": "<base64>"}``.

A query's ``payload`` and an array ``result`` may cross the HTTP
boundary as nested JSON lists or, far cheaper for large arrays, as an
object whose only key is ``npy``: the standard base64 of a ``.npy``
file (NumPy's NEP 1 format) inside the still-JSON body.  A query body
carrying one ``(8192, 1)`` float64 column is 87,613 bytes this way
against 185,487 as decimal text, and skips the ``tolist`` /
``asarray`` round trip on both ends.

:func:`encode_array` writes the form.  :func:`decode_array` reads an
untrusted one and validates before it allocates: the header is parsed
with ``numpy.lib.format``'s public readers (never unpickled), and the
element count it claims — computed in Python integers, so no product
overflows — must match the data it carries byte for byte before any
array exists.  Every refusal is an :class:`~repro.net.http.HttpError`
400 naming the problem.
"""

from __future__ import annotations

import base64
import io
import math
from typing import Any

import numpy as np
from numpy.lib import format as npy_format

from .http import HttpError

__all__ = ["decode_array", "encode_array"]

#: The dtypes the form carries: little-endian float64 and float32.
FLOAT_DTYPES = ("<f8", "<f4")

#: ``.npy`` format versions read, and their header readers.
_HEADER_READERS = {
    (1, 0): npy_format.read_array_header_1_0,
    (2, 0): npy_format.read_array_header_2_0,
}


def encode_array(array: np.ndarray) -> dict:
    """``array`` in the ``npy`` form; float32 and float64 are sent as
    they are, any other dtype as float64."""
    if array.dtype.str not in FLOAT_DTYPES:
        array = array.astype(np.float64)
    buffer = io.BytesIO()
    npy_format.write_array(buffer, array, allow_pickle=False)
    return {"npy": base64.b64encode(buffer.getvalue()).decode("ascii")}


def decode_array(value: Any) -> np.ndarray:
    """The C-ordered float64 array a ``payload`` object in the ``npy``
    form holds: 1-D or 2-D, ``<f8`` or ``<f4``, C or Fortran order.
    Anything else raises :class:`HttpError` 400.  Finiteness is left to
    the caller, which checks both wire forms alike."""
    if set(value) != {"npy"}:
        raise HttpError(
            400,
            f"a 'payload' object must have exactly one key, 'npy'; "
            f"got {sorted(value)}",
        )
    text = value["npy"]
    if not isinstance(text, str):
        raise HttpError(
            400, f"'payload.npy' must be a base64 string, got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise HttpError(400, f"'payload.npy' is not valid base64: {exc}")
    stream = io.BytesIO(raw)
    try:
        version = npy_format.read_magic(stream)
    except ValueError as exc:
        raise HttpError(400, f"'payload.npy' is not a .npy file: {exc}")
    reader = _HEADER_READERS.get(version)
    if reader is None:
        raise HttpError(
            400,
            f"'payload.npy' is .npy format {version[0]}.{version[1]}; "
            f"only 1.0 and 2.0 are read",
        )
    try:
        shape, fortran_order, dtype = reader(stream)
    # numpy documents ValueError, but a crafted header also escapes its
    # ast.literal_eval, tokenize and dtype code as TypeError, IndexError,
    # RecursionError or tokenize.TokenError.  The call reads nothing but
    # the client's bytes, so every failure is the input's.
    except Exception as exc:  # noqa: BLE001
        detail = str(exc)[:200]
        raise HttpError(400, f"'payload.npy' has a malformed header: {detail}")
    if dtype.str not in FLOAT_DTYPES:
        raise HttpError(
            400,
            f"'payload.npy' has dtype {dtype.str!r}; send little-endian "
            f"float64 ('<f8') or float32 ('<f4')",
        )
    if len(shape) not in (1, 2):
        raise HttpError(
            400, f"'payload.npy' must be 1-D or 2-D, got shape {shape}"
        )
    # bool passes numpy's integer check, but is no dimension.
    if any(type(n) is not int or n < 0 for n in shape):
        raise HttpError(
            400,
            f"'payload.npy' shape {shape} must be non-negative integers",
        )
    count = math.prod(shape)
    data = memoryview(raw)[stream.tell() :]
    if count * dtype.itemsize != len(data):
        # The claimed size is not printed: a product of header integers
        # may have more digits than int-to-str conversion allows.
        raise HttpError(
            400,
            f"'payload.npy' header claims shape {shape} of {dtype.str!r}, "
            f"which {len(data)} data bytes do not fill exactly",
        )
    array = np.frombuffer(data, dtype=dtype, count=count)
    try:
        array = array.reshape(shape, order="F" if fortran_order else "C")
    except ValueError as exc:  # an empty array with a dimension past intp
        raise HttpError(
            400, f"'payload.npy' shape {shape} is no array shape: {exc}"
        )
    return array.astype(np.float64, order="C")
