"""Message envelope and payload sizing semantics."""

import numpy as np
import pytest

from repro.smpi.message import Envelope, copy_payload, payload_nbytes
from repro.smpi.reduction import ReduceOp, SUM


class TestCopyPayload:
    def test_scalars_passthrough(self):
        for obj in (None, 1, 2.5, True, "s", b"b", 1 + 2j):
            assert copy_payload(obj) is obj or copy_payload(obj) == obj

    def test_array_copied(self):
        a = np.arange(4)
        c = copy_payload(a)
        assert c is not a
        a[0] = 99
        assert c[0] == 0

    def test_nested_container_deep_copied(self):
        a = {"x": np.zeros(3), "y": [np.ones(2)]}
        c = copy_payload(a)
        a["x"][0] = 5
        a["y"][0][0] = 5
        assert c["x"][0] == 0
        assert c["y"][0][0] == 1


class TestPayloadNbytes:
    def test_none_zero(self):
        assert payload_nbytes(None) == 0

    def test_array_buffer_size(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.float32)) == 40

    def test_bytes_length(self):
        assert payload_nbytes(b"abcd") == 4

    def test_scalars_eight(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8

    def test_containers_sum(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40
        # dict: value contributes its 8 bytes; key sized by the pickle
        # fallback (string) — total must include at least the value.
        assert payload_nbytes({"k": np.zeros(1)}) >= 8

    def test_generic_object_pickle_sized(self):
        # strings take the pickle fallback path
        assert payload_nbytes("hello world") > 0

    def test_unpicklable_degrades_to_zero(self):
        # sizing failures must not break communication — they report 0
        class Local:
            pass

        assert payload_nbytes(Local()) == 0


class TestEnvelope:
    def test_make_snapshots(self):
        data = np.zeros(3)
        env = Envelope.make(source=0, tag=1, payload=data)
        data[0] = 7
        assert env.payload[0] == 0
        assert env.nbytes == 24

    def test_matches_exact(self):
        env = Envelope.make(0, 5, "x")
        assert env.matches(0, 5)
        assert not env.matches(1, 5)
        assert not env.matches(0, 6)

    def test_matches_wildcards(self):
        env = Envelope.make(2, 9, "x")
        assert env.matches(-1, 9)
        assert env.matches(2, -1)
        assert env.matches(-1, -1)


class TestReduceOps:
    def test_sum_fold(self):
        assert SUM.reduce_sequence([1, 2, 3]) == 6

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SUM.reduce_sequence([])

    def test_custom_op(self):
        concat = ReduceOp("CONCAT", lambda a, b: a + b)
        assert concat.reduce_sequence(["a", "b", "c"]) == "abc"
