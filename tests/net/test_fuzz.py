"""Boundary fuzzing of the HTTP frontend: request framing and submit
validation.

Hypothesis properties with fixed example budgets and no deadline, like
``tests/property``, derandomized so every run tries the same inputs:

* :func:`read_request` fed arbitrary, truncated and oversized heads and
  bodies returns a :class:`Request`, returns ``None`` (clean EOF), or
  raises :class:`HttpError` with a 4xx or 501 status — nothing else.  A
  malformed or conflicting ``Content-Length`` never frames a request.
* generated JSON bodies posted to a live server never get a 500, a valid
  query is accepted, a boolean ``version`` gets a 400, and a fresh
  connection is still served afterwards.
* generated ``{"npy": ...}`` payloads — headers, dtypes and shapes, cut
  files and corrupted base64 — get the same treatment: never a 500, a
  valid one is accepted, and the server keeps serving.
"""

import asyncio
import base64
import http.client
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import BackendConfig, RunConfig, Session, SolverConfig, StreamConfig
from repro.config import ServingConfig
from repro.net import start_in_thread
from repro.net.http import MAX_HEADER_BYTES, HttpError, Request, read_request
from repro.serving import ModeBaseStore

NDOF = 24

#: Header text without the bytes that frame a head (CR, LF) or split a
#: header line (the name's colon).
_VALUE_CHARS = st.characters(min_codepoint=32, max_codepoint=255)
_NAME_CHARS = st.characters(
    min_codepoint=33, max_codepoint=126, exclude_characters=":"
)

_content_lengths = st.one_of(
    st.integers(0, 64).map(str),
    st.sampled_from(
        ["1_0", "+5", "-5", " 7 ", "0x10", "1e2", "5.0", "\xb2", "", "3 3", "07"]
    ),
    st.text(_VALUE_CHARS, max_size=6),
)


@st.composite
def _framed_request(draw):
    """A request head built from parts (so the expected framing is known),
    a body of any length, and sometimes a cut at any byte; returns the
    bytes and the headers in them."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "", "P OST"]))
    target = draw(
        st.sampled_from(["/", "/v1/query", "/x?wait=1&y=", "//[", "/%zz?a=%"])
        | st.text(_NAME_CHARS, max_size=12)
    )
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "http/1.1"]))
    length_names = ["Content-Length", "content-length ", " CONTENT-LENGTH"]
    headers = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(length_names), _content_lengths),
                st.tuples(
                    st.sampled_from(["Host", "Connection", "Transfer-Encoding"])
                    | st.text(_NAME_CHARS, min_size=1, max_size=8),
                    st.text(_VALUE_CHARS, max_size=8),
                ),
            ),
            max_size=4,
        )
    )
    padding = draw(st.sampled_from([0, 0, 0, MAX_HEADER_BYTES]))
    if padding:
        headers.append(("X-Pad", "a" * padding))
    lines = [f"{method} {target} {version}"]
    lines += [f"{name}:{value}" for name, value in headers]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    raw = head + draw(st.binary(max_size=80))
    cut = draw(st.none() | st.integers(0, len(raw)))
    if cut is None:
        return raw, headers
    # A head cut short never reaches its headers.
    return raw[:cut], (headers if cut >= len(head) else [])


def _framing_outcome(raw: bytes, max_body_bytes: int):
    """What :func:`read_request` makes of ``raw`` (the server's stream
    limit): a request, ``None`` or a client error; anything else raises."""

    async def parse():
        reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes=max_body_bytes)

    try:
        request = asyncio.run(parse())
    except HttpError as exc:
        assert 400 <= exc.status < 500 or exc.status == 501, exc.status
        return exc
    assert request is None or isinstance(request, Request)
    return request


def _frames_only_valid_lengths(outcome, headers, raw) -> None:
    """A malformed or conflicting Content-Length never frames a request;
    a framed request's body is exactly the declared length."""
    lengths = {
        value.strip()
        for name, value in headers
        if name.strip().lower() == "content-length"
    }
    malformed = any(not re.fullmatch("[0-9]+", length) for length in lengths)
    if malformed or len(lengths) > 1:
        assert isinstance(outcome, HttpError), (raw[:200], outcome)
    elif isinstance(outcome, Request):
        assert len(outcome.body) == int(lengths.pop() if lengths else 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    request=_framed_request(),
    max_body_bytes=st.sampled_from([16, 1 << 20]),
)
def test_framing_outcomes_are_request_none_or_client_error(request, max_body_bytes):
    raw, headers = request
    outcome = _framing_outcome(raw, max_body_bytes)
    _frames_only_valid_lengths(outcome, headers, raw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    lengths=st.lists(_content_lengths, min_size=1, max_size=2),
    body=st.binary(max_size=80),
)
def test_content_length_is_digits_and_unambiguous(lengths, body):
    """A well-formed POST whose only variable is its Content-Length
    header(s), with a body long enough for any length they declare."""
    headers = [("Content-Length", value) for value in lengths]
    head = "POST /v1/query HTTP/1.1\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    raw = (head + "\r\n").encode("latin-1") + body + b"x" * 100
    outcome = _framing_outcome(raw, 1 << 20)
    _frames_only_valid_lengths(outcome, headers, raw)
    assert outcome is not None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    raw=st.binary(max_size=200),
    max_body_bytes=st.sampled_from([16, 1 << 20]),
)
def test_arbitrary_bytes_never_escape_the_parser(raw, max_body_bytes):
    _framing_outcome(raw, max_body_bytes)


# -- live server --------------------------------------------------------------

#: A valid ``project`` payload for the served basis: one NDOF-row column.
COLUMN = [[0.5]] * NDOF


@pytest.fixture(scope="module")
def live_port(tmp_path_factory):
    cfg = RunConfig(
        solver=SolverConfig(K=3, ff=1.0),
        backend=BackendConfig(name="self"),
        stream=StreamConfig(batch=8),
    )
    data = np.random.default_rng(5).standard_normal((NDOF, 24))
    store = ModeBaseStore(tmp_path_factory.mktemp("fuzzstore"))
    with Session(cfg) as session:
        session.fit_stream(data).export_to_store(store, "wave")
    serving = ServingConfig(port=0, flush_deadline_ms=5.0)
    handle = start_in_thread(store, cfg.replace(serving=serving))
    yield handle.server.port
    handle.stop()


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
#: Numbers and near-numbers at the edges of what a payload entry can be.
_edge_entries = st.sampled_from(
    [10**400, -(10**400), 10**20, True, None, "1", 1e308, float("inf"), []]
)
#: A valid query, and per field what a client might send instead.
VALID = {"basis": "wave", "kind": "project", "payload": COLUMN, "version": 1}
_MUTATIONS = {
    "basis": st.sampled_from(["nope", "", "wave/.."]) | _json_values,
    "kind": st.sampled_from(["reconstruct", "reconstruction_error", "summon"])
    | _json_scalars,
    "payload": st.builds(
        lambda row, value: COLUMN[:row] + [[value]] + COLUMN[row + 1 :],
        st.integers(0, NDOF - 1),
        _edge_entries | _json_scalars,
    )
    | _json_values,
    "version": st.sampled_from([None, 0, 2, -1, 10**20, True, False, "1", 1.0])
    | _json_scalars,
}


@st.composite
def _submission(draw):
    """A ``POST /v1/query`` body: a valid query with up to two fields
    changed or dropped, any JSON value, or raw bytes (deep nesting,
    numbers past every limit, garbage)."""
    shape = draw(st.sampled_from(["query", "query", "query", "json", "raw"]))
    if shape == "json":
        return draw(_json_values)
    if shape == "raw":
        depth = draw(st.sampled_from([1, 100, 1_000, 100_000]))
        return draw(
            st.sampled_from(
                [
                    b"[" * depth,
                    b'{"a":' * depth,
                    b'{"basis": "wave", "payload": ' + b"[" * depth,
                    b"1" * 5000,
                    b'{"basis": "wave", "payload": [[1e999]]}',
                ]
            )
            | st.binary(max_size=64)
        )
    body = dict(VALID)
    changed = st.lists(st.sampled_from(sorted(VALID)), max_size=2, unique=True)
    for key in draw(changed):
        if draw(st.integers(0, 3)):
            body[key] = draw(_MUTATIONS[key])
        else:
            del body[key]
    return body


def _valid_query(body) -> bool:
    """Whether the server must accept ``body``: :data:`VALID`, perhaps
    without ``kind`` or ``version`` (project and the latest, 1, by
    default)."""
    if not isinstance(body, dict) or not {"basis", "payload"} <= set(body):
        return False
    version = body.get("version")
    if version is not None and type(version) is not int:
        return False
    return {**VALID, **body, "version": 1 if version is None else version} == VALID


def _request(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(submission=_submission())
def test_submissions_never_answer_500(live_port, submission):
    raw = submission if isinstance(submission, bytes) else json.dumps(submission)
    status, reply = _request(live_port, "POST", "/v1/query", raw)
    assert status != 500 and 200 <= status < 500, (status, reply[:200])
    if _valid_query(submission):
        assert status in (200, 202), (status, reply[:200])
    elif isinstance(submission, dict) and type(submission.get("version")) is bool:
        assert status == 400, (status, reply[:200])
    # The server keeps serving: a fresh connection gets its answer.
    assert _request(live_port, "GET", "/healthz")[0] == 200


#: What one mutation of a valid ``npy`` payload may change.
_NPY_PARTS = [
    "descr", "shape", "fill", "header", "version", "data", "cut", "base64",
    "type", "extra",
]
_NPY_BAD_DESCRS = [">f8", ">f4", "<f2", "<i8", "|b1", "<c16", "|O", "|V8"]
_NPY_BAD_SHAPES = st.sampled_from(
    [(NDOF - 1, 1), (), (NDOF, 1, 1), (-NDOF, -1), (2**40, 2**40), (10**9,)]
    + [(10**4000, 10**4000), (0, 2**63)]  # too long to print; past intp
) | st.lists(
    st.sampled_from([0, 1, 2, -1, -(2**40), 2**31, 2**63, True]), max_size=3
).map(tuple)


@st.composite
def _npy_payload(draw):
    """A ``project`` payload in the ``npy`` form and whether it is valid:
    a valid one (``<f8`` or ``<f4``, 1-D or 2-D, either order, header
    version 1.0 or 2.0) with up to two parts changed — dtype, shape,
    values, raw header text, version, data length, a cut anywhere in
    the file, corrupted base64, a non-string value, an extra key."""
    parts = st.lists(st.sampled_from(_NPY_PARTS), max_size=2, unique=True)
    changed = set(draw(parts))
    descr = draw(st.sampled_from(["<f8", "<f4"]))
    if "descr" in changed:
        descr = draw(st.sampled_from(_NPY_BAD_DESCRS))
    shape = draw(st.sampled_from([(NDOF,), (NDOF, 1), (NDOF, 2)]))
    if "shape" in changed:
        shape = draw(_NPY_BAD_SHAPES)
    fill = draw(st.sampled_from([0.5, -2.0, 1e-30]))
    if "fill" in changed:
        fill = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    fortran = draw(st.booleans())
    header = repr({"descr": descr, "fortran_order": fortran, "shape": shape})
    if "header" in changed:
        header = draw(st.text(max_size=40))
    version = draw(st.sampled_from([(1, 0), (2, 0)]))
    if "version" in changed:
        version = draw(st.sampled_from([(3, 0), (0, 9), (2, 1), (255, 255)]))
    if {"descr", "shape"} & changed:
        data = draw(st.binary(max_size=16 * NDOF))
    else:
        data = np.full(shape, fill, dtype=descr).tobytes()
    if "data" in changed:
        cut = draw(st.integers(1, 16))
        data = data[:-cut] if draw(st.booleans()) else data + bytes(cut)
    text = header.encode("utf-8") + b"\n"
    size = struct.pack("<H" if version == (1, 0) else "<I", len(text))
    raw = b"\x93NUMPY" + bytes(version) + size + text + data
    if "cut" in changed:
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    encoded = base64.b64encode(raw).decode("ascii")
    if "base64" in changed:
        if draw(st.booleans()):
            encoded = encoded[:-1]  # a length that is no multiple of 4
        else:
            at = draw(st.integers(0, max(len(encoded) - 1, 0)))
            bad = draw(st.sampled_from("!*-_ \n\xe9"))
            encoded = encoded[:at] + bad + encoded[at + 1 :]
    value = {"npy": encoded}
    if "type" in changed:
        value["npy"] = draw(_json_scalars.filter(lambda v: not isinstance(v, str)))
    if "extra" in changed:
        value["extra"] = 1
    return value, not changed


@settings(max_examples=100, deadline=None, derandomize=True)
@given(payload=_npy_payload())
def test_npy_payloads_never_answer_500(live_port, payload):
    value, valid = payload
    body = json.dumps({"basis": "wave", "kind": "project", "payload": value})
    status, reply = _request(live_port, "POST", "/v1/query", body)
    assert status != 500 and 200 <= status < 500, (status, reply[:200])
    if valid:
        assert status in (200, 202), (status, reply[:200])
    else:
        assert status == 400, (status, reply[:200])
    assert _request(live_port, "GET", "/healthz")[0] == 200
