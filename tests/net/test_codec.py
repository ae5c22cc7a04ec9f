"""The ``npy`` wire form at the HTTP boundary (:mod:`repro.net.codec`).

* Every malformed ``{"npy": ...}`` payload gets a 400 that names the
  problem, and a header claiming more elements than its data holds is
  refused before anything large is allocated.
* The accepted variants (``<f4``, Fortran order, 1-D) answer exactly as
  the list form does.
* The same query sent in both forms gets bit-identical answers from one
  result-cache entry, whichever form goes first.
"""

import base64
import struct
import tracemalloc

import numpy as np
import pytest

from repro.api import BackendConfig, RunConfig, Session, SolverConfig, StreamConfig
from repro.config import ServingConfig
from repro.net import ServingClient, start_in_thread
from repro.net.codec import decode_array, encode_array
from repro.net.http import HttpError
from repro.serving import ModeBaseStore

NDOF = 32


def npy_file(
    descr="<f8",
    shape=(NDOF, 1),
    data=b"",
    *,
    fortran_order=False,
    version=(1, 0),
    header=None,
) -> bytes:
    """A ``.npy`` file built by hand, so that its header may lie (or, as
    raw ``header`` text, not be a header at all)."""
    if header is None:
        header = repr(
            {"descr": descr, "fortran_order": fortran_order, "shape": shape}
        )
    text = header.encode("latin-1") + b"\n"
    size = struct.pack("<H" if version == (1, 0) else "<I", len(text))
    return b"\x93NUMPY" + bytes(version) + size + text + data


def npy(raw: bytes) -> dict:
    return {"npy": base64.b64encode(raw).decode("ascii")}


COLUMN = np.linspace(-1.0, 1.0, NDOF)[:, None]
GOOD = npy_file(data=COLUMN.tobytes())

#: id -> (payload object, words its 400 must contain)
REFUSED = {
    "value-not-a-string": ({"npy": 12}, "must be a base64 string"),
    "bad-base64": ({"npy": "not base64!"}, "not valid base64"),
    "bad-magic": (npy(b"\x93NUMPX" + GOOD[6:]), "not a .npy file"),
    "truncated-header": (npy(GOOD[:24]), "malformed header"),
    "header-version-3": (
        npy(npy_file(data=COLUMN.tobytes(), version=(3, 0))),
        "format 3.0",
    ),
    "object-dtype": (npy(npy_file("|O", data=bytes(8 * NDOF))), "'|O'"),
    "int64-dtype": (npy(npy_file("<i8", data=bytes(8 * NDOF))), "'<i8'"),
    "complex-dtype": (npy(npy_file("<c16", data=bytes(16 * NDOF))), "'<c16'"),
    "big-endian": (
        npy(npy_file(">f8", data=COLUMN.astype(">f8").tobytes())),
        "'>f8'",
    ),
    "0-d": (npy(npy_file(shape=(), data=bytes(8))), "1-D or 2-D"),
    "3-d": (npy(npy_file(shape=(NDOF, 1, 1), data=COLUMN.tobytes())), "1-D or 2-D"),
    "negative-dimensions": (
        npy(npy_file(shape=(-2, -4), data=bytes(64))),
        "non-negative",
    ),
    "2**40-squared-no-data": (npy(npy_file(shape=(2**40, 2**40))), "header claims"),
    "1e9-elements-over-8-bytes": (
        npy(npy_file(shape=(10**9,), data=bytes(8))),
        "header claims",
    ),
    "data-longer-than-shape": (npy(GOOD + bytes(8)), "header claims"),
    "empty-with-a-dimension-past-intp": (
        npy(npy_file(shape=(0, 2**63))),
        "no array shape",
    ),
    # Their product has more digits than int-to-str conversion allows.
    "4000-digit-dimensions": (
        npy(npy_file(shape=(10**4000, 10**4000))),
        "header claims",
    ),
    "non-finite": (
        npy(npy_file(data=np.full((NDOF, 1), np.nan).tobytes())),
        "finite",
    ),
    "extra-key": ({**npy(GOOD), "dtype": "<f8"}, "exactly one key"),
}

#: Header text that numpy's reader fails on with something other than
#: ValueError: IndexError, TypeError, tokenize.TokenError, RecursionError.
BAD_HEADERS = {
    "header-descr-tuple-of-one": (
        "{'descr': ('<f8',), 'fortran_order': False, 'shape': (1,)}"
    ),
    "header-unhashable-key": "{[1]: 2}",
    "header-unterminated-string": "{'descr': '''<f8",
    "header-deep-unary": "-" * 3000 + "1",
}
REFUSED.update(
    (name, (npy(npy_file(header=text)), "malformed header"))
    for name, text in BAD_HEADERS.items()
)

#: Headers whose claimed element count no data backs: a decoder that
#: trusted them would allocate terabytes (or overflow to 0 and crash).
HOSTILE = [
    "negative-dimensions",
    "2**40-squared-no-data",
    "1e9-elements-over-8-bytes",
    "4000-digit-dimensions",
]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    cfg = RunConfig(
        solver=SolverConfig(K=4, ff=1.0),
        backend=BackendConfig(name="self"),
        stream=StreamConfig(batch=8),
    )
    data = np.random.default_rng(9).standard_normal((NDOF, 24))
    store = ModeBaseStore(tmp_path_factory.mktemp("codecstore"))
    with Session(cfg) as session:
        session.fit_stream(data).export_to_store(store, "wave")
    return store, cfg


def _client(store, cache_entries):
    store, cfg = store
    serving = ServingConfig(
        port=0, flush_deadline_ms=5.0, result_cache_entries=cache_entries
    )
    return start_in_thread(store, cfg.replace(serving=serving))


@pytest.fixture(scope="module")
def client(store):
    with _client(store, 64) as handle:
        with ServingClient.from_url(handle.url) as client:
            yield client


@pytest.fixture(scope="module")
def uncached(store):
    """A server whose every answer comes from a flush, not the cache."""
    with _client(store, 0) as handle:
        with ServingClient.from_url(handle.url) as client:
            yield client


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_answered_400_naming_the_problem(self, client, case):
        payload, words = REFUSED[case]
        before = client.metrics()["engine"]["queries"]
        status, reply = client.request_raw(
            "POST", "/v1/query", {"basis": "wave", "payload": payload}
        )
        assert status == 400, reply
        assert words in reply["error"], reply["error"]
        assert client.metrics()["engine"]["queries"] == before

    @pytest.mark.parametrize("case", HOSTILE)
    def test_hostile_header_refused_before_allocating(self, case):
        payload, words = REFUSED[case]
        tracemalloc.start()
        try:
            with pytest.raises(HttpError, match=words) as refused:
                decode_array(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert refused.value.status == 400
        assert peak < 64 * 1024, peak


class TestAcceptedForms:
    @pytest.mark.parametrize("form", ["float32", "fortran-2d", "1-d"])
    @pytest.mark.parametrize("kind", ["project", "reconstruction_error"])
    def test_answers_as_the_list_form(self, uncached, form, kind):
        block = np.random.default_rng(24).standard_normal((NDOF, 3))
        payload = {
            "float32": block.astype(np.float32),
            "fortran-2d": np.asfortranarray(block),
            "1-d": block[:, 0],
        }[form]
        header = base64.b64decode(encode_array(payload)["npy"])[:128]
        assert (b"'fortran_order': True" in header) == (form == "fortran-2d")
        as_lists = uncached.result(
            uncached.submit("wave", payload.tolist(), kind=kind), wait=10.0
        )
        as_npy = uncached.result(
            uncached.submit("wave", payload, kind=kind), wait=10.0
        )
        assert np.shape(as_npy) == np.shape(as_lists)
        assert np.max(np.abs(np.asarray(as_npy) - as_lists)) == 0.0

    def test_results_follow_the_submit_form(self, uncached):
        block = np.random.default_rng(25).standard_normal((NDOF, 2))
        for payload, form in ((block, dict), (block.tolist(), list)):
            job = uncached.submit("wave", payload, kind="project")
            assert type(uncached.job(job["job"], wait=10.0)["result"]) is form
            job = uncached.submit("wave", payload, kind="reconstruction_error")
            # A scalar result is a JSON number in either form.
            assert type(uncached.job(job["job"], wait=10.0)["result"]) is float

    def test_codec_round_trip(self):
        block = np.random.default_rng(26).standard_normal((NDOF, 2))
        for array in (block, block.astype(np.float32), np.asfortranarray(block)):
            decoded = decode_array(encode_array(array))
            assert decoded.dtype == np.float64 and decoded.flags.c_contiguous
            assert np.array_equal(decoded, array.astype(np.float64))
        # Other dtypes travel as float64.
        ints = np.arange(6).reshape(3, 2)
        assert b"'<f8'" in base64.b64decode(encode_array(ints)["npy"])[:64]
        assert np.array_equal(decode_array(encode_array(ints)), ints)


class TestCrossForm:
    @pytest.mark.parametrize("first", ["list", "npy"])
    def test_either_form_hits_the_others_cache_entry(self, client, first):
        block = np.random.default_rng(30 + (first == "npy")).standard_normal(
            (NDOF, 2)
        )
        forms = {"list": block.tolist(), "npy": block}
        second = "npy" if first == "list" else "list"
        reply = client.submit("wave", forms[first])
        # Flushed in the submit's own engine call, not served from the cache.
        assert reply["status"] == "done" and reply["cached"] is False
        answer = client.result(reply, wait=10.0)
        again = client.submit("wave", forms[second])
        assert again["status"] == "done" and again["cached"] is True
        repeat = client.result(again)
        assert repeat.dtype == answer.dtype and repeat.shape == answer.shape
        assert repeat.tobytes() == answer.tobytes()
